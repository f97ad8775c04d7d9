package stats

import "fmt"

// MomentAccumulator maintains the streaming mean vector and
// co-moment matrix of a stream of d-dimensional observations — the
// multivariate generalization of Welford. It stores only the upper
// triangle of the co-moment matrix (sums of (x_i - mean_i)(x_j -
// mean_j)), so one accumulator costs O(d^2) memory regardless of how
// many observations it has absorbed, and finalizing the sample
// covariance is O(d^2) instead of the O(n·d^2) re-walk a batch
// computation pays.
//
// Accumulators merge with Chan et al.'s pairwise update, so per-shard
// accumulators (e.g. per-timeline-bucket) can be combined exactly.
type MomentAccumulator struct {
	dim  int
	n    int
	mean []float64
	// comoment holds the upper triangle (i <= j) of the co-moment
	// matrix row by row: index (i, j) lives at i*dim - i*(i-1)/2 + j-i.
	comoment []float64
	// dx and dy are scratch for Add (x - mean before and after the
	// update), kept to avoid per-observation allocation.
	dx, dy []float64
}

// NewMomentAccumulator returns an empty accumulator for d-dimensional
// observations. It panics if dim is not positive.
func NewMomentAccumulator(dim int) *MomentAccumulator {
	if dim <= 0 {
		panic("stats: MomentAccumulator dim must be positive")
	}
	return &MomentAccumulator{
		dim:      dim,
		mean:     make([]float64, dim),
		comoment: make([]float64, dim*(dim+1)/2),
		dx:       make([]float64, dim),
		dy:       make([]float64, dim),
	}
}

// Dim returns the observation dimensionality.
func (m *MomentAccumulator) Dim() int { return m.dim }

// Count returns the number of observations absorbed.
func (m *MomentAccumulator) Count() int { return m.n }

// Add absorbs one observation. It panics on a dimension mismatch.
func (m *MomentAccumulator) Add(x []float64) {
	if len(x) != m.dim {
		panic(fmt.Sprintf("stats: MomentAccumulator.Add dim %d, want %d", len(x), m.dim))
	}
	m.n++
	inv := 1 / float64(m.n)
	mean, dx, dy := m.mean[:len(x)], m.dx[:len(x)], m.dy[:len(x)]
	for i, v := range x {
		dx[i] = v - mean[i]
		mean[i] += dx[i] * inv
		dy[i] = v - mean[i]
	}
	// Row i of the upper triangle gains dx[i]·dy[j] for j >= i.
	rows := m.comoment
	for i, di := range dx {
		row := rows[:len(dy)-i]
		for j, y := range dy[i:] {
			row[j] += di * y
		}
		rows = rows[len(row):]
	}
}

// Merge combines another accumulator into this one (Chan's parallel
// update). Both accumulators must share a dimensionality; o is left
// unchanged.
func (m *MomentAccumulator) Merge(o *MomentAccumulator) error {
	if o.dim != m.dim {
		return fmt.Errorf("stats: MomentAccumulator merge dim %d vs %d", o.dim, m.dim)
	}
	if o.n == 0 {
		return nil
	}
	if m.n == 0 {
		m.n = o.n
		copy(m.mean, o.mean)
		copy(m.comoment, o.comoment)
		return nil
	}
	na, nb := float64(m.n), float64(o.n)
	n := na + nb
	for i := range m.dx {
		m.dx[i] = o.mean[i] - m.mean[i]
	}
	w := na * nb / n
	k := 0
	for i := 0; i < m.dim; i++ {
		di := m.dx[i]
		for j := i; j < m.dim; j++ {
			m.comoment[k] += o.comoment[k] + di*m.dx[j]*w
			k++
		}
	}
	for i := range m.mean {
		m.mean[i] += m.dx[i] * nb / n
	}
	m.n += o.n
	return nil
}

// Mean returns a copy of the running mean vector.
func (m *MomentAccumulator) Mean() []float64 {
	return append([]float64(nil), m.mean...)
}

// CovarianceInto writes the unbiased (n-1) sample covariance into dst
// as a dim×dim row-major matrix, allocating when dst is nil. It
// returns an error with fewer than two observations.
func (m *MomentAccumulator) CovarianceInto(dst []float64) ([]float64, error) {
	if m.n < 2 {
		return nil, fmt.Errorf("stats: need >= 2 samples for covariance, got %d", m.n)
	}
	if dst == nil {
		dst = make([]float64, m.dim*m.dim)
	}
	inv := 1 / float64(m.n-1)
	k := 0
	for i := 0; i < m.dim; i++ {
		for j := i; j < m.dim; j++ {
			v := m.comoment[k] * inv
			dst[i*m.dim+j] = v
			dst[j*m.dim+i] = v
			k++
		}
	}
	return dst, nil
}
