// Package fid computes the Fréchet Inception Distance between image
// feature distributions, exactly (full covariance) via symmetric
// eigendecomposition.
//
// The FID between two Gaussians N(mu1, S1) and N(mu2, S2) is
//
//	||mu1 - mu2||^2 + tr(S1 + S2 - 2 (S1 S2)^{1/2}).
//
// Following the paper, system response quality is reported as the FID
// between the set of served images and the ground-truth image set of
// the evaluation dataset.
package fid

import (
	"fmt"

	"diffserve/internal/imagespace"
	"diffserve/internal/linalg"
	"diffserve/internal/stats"
)

// Frechet computes the exact Fréchet distance between two Gaussians
// specified by their means and covariance matrices.
func Frechet(mu1 []float64, s1 *linalg.Matrix, mu2 []float64, s2 *linalg.Matrix) (float64, error) {
	if len(mu1) != len(mu2) {
		return 0, fmt.Errorf("fid: mean dims %d vs %d", len(mu1), len(mu2))
	}
	if s1.Rows != len(mu1) || s2.Rows != len(mu2) || s1.Rows != s1.Cols || s2.Rows != s2.Cols {
		return 0, fmt.Errorf("fid: covariance shape mismatch")
	}
	d2 := 0.0
	for i := range mu1 {
		d := mu1[i] - mu2[i]
		d2 += d * d
	}
	cross, err := linalg.TraceSqrtProduct(s1, s2, 1e-6)
	if err != nil {
		return 0, fmt.Errorf("fid: %w", err)
	}
	v := d2 + s1.Trace() + s2.Trace() - 2*cross
	// Floating-point noise can push a zero distance slightly negative.
	if v < 0 && v > -1e-8 {
		v = 0
	}
	return v, nil
}

// Between computes the exact FID between two sets of feature vectors.
//
// Each set must contain at least dim+1 samples for a well-conditioned
// covariance; fewer samples yield a PSD-clamped estimate.
//
//diffvet:allow deadcode — the reference the streaming-FID parity tests hold Reference.Score and ScoreMoments to
func Between(generated, reference [][]float64) (float64, error) {
	mu1, s1, err := imagespace.Moments(generated)
	if err != nil {
		return 0, err
	}
	mu2, s2, err := imagespace.Moments(reference)
	if err != nil {
		return 0, err
	}
	return Frechet(mu1, s1, mu2, s2)
}

// Reference holds precomputed moments of a reference (real image) set,
// so repeated FID evaluations against the same dataset avoid
// recomputing them.
type Reference struct {
	Mu    []float64
	Sigma *linalg.Matrix
}

// NewReference precomputes moments for the reference set.
func NewReference(features [][]float64) (*Reference, error) {
	mu, sigma, err := imagespace.Moments(features)
	if err != nil {
		return nil, err
	}
	return &Reference{Mu: mu, Sigma: sigma}, nil
}

// ExactReference returns the analytic reference for the imagespace
// model: the real-image population N(0, I_dim).
//
//diffvet:allow deadcode — the analytic reference the FID parity tests score samples against
func ExactReference(dim int) *Reference {
	return &Reference{Mu: make([]float64, dim), Sigma: linalg.Identity(dim)}
}

// Score computes the exact FID of a generated set against the
// reference.
func (r *Reference) Score(generated [][]float64) (float64, error) {
	mu, sigma, err := imagespace.Moments(generated)
	if err != nil {
		return 0, err
	}
	return Frechet(mu, sigma, r.Mu, r.Sigma)
}

// AccumulatorMoments finalizes a streaming accumulator into the
// (mean, covariance) pair Frechet consumes, without materializing the
// underlying feature vectors.
func AccumulatorMoments(acc *stats.MomentAccumulator) ([]float64, *linalg.Matrix, error) {
	if acc == nil || acc.Count() < 2 {
		n := 0
		if acc != nil {
			n = acc.Count()
		}
		return nil, nil, fmt.Errorf("fid: need >= 2 samples for moments, got %d", n)
	}
	sigma := linalg.NewMatrix(acc.Dim(), acc.Dim())
	if _, err := acc.CovarianceInto(sigma.Data); err != nil {
		return nil, nil, err
	}
	return acc.Mean(), sigma, nil
}

// NewReferenceFromAccumulator builds a reference from streamed
// moments, skipping the [][]float64 materialization NewReference pays.
func NewReferenceFromAccumulator(acc *stats.MomentAccumulator) (*Reference, error) {
	mu, sigma, err := AccumulatorMoments(acc)
	if err != nil {
		return nil, err
	}
	return &Reference{Mu: mu, Sigma: sigma}, nil
}

// ScoreMoments computes the exact FID of a generated set summarized by
// a streaming moment accumulator — the O(d^2)/O(d^3) finalization path
// the serving-system metrics pipeline uses instead of re-walking every
// served feature vector.
func (r *Reference) ScoreMoments(acc *stats.MomentAccumulator) (float64, error) {
	mu, sigma, err := AccumulatorMoments(acc)
	if err != nil {
		return 0, err
	}
	return Frechet(mu, sigma, r.Mu, r.Sigma)
}
