// Package worker models a GPU worker's serving state machine: the
// role it currently hosts (light model + discriminator, heavy model,
// or idle), its configured batch size and busy/loading intervals,
// plus the keep-in-place role assignment a new plan goes through. The discrete-event simulator and the cluster
// runtime both drive it.
package worker

import (
	"fmt"
)

// Role is the model a worker currently hosts.
type Role int

// Worker roles.
const (
	RoleIdle Role = iota
	RoleLight
	RoleHeavy
)

func (r Role) String() string {
	switch r {
	case RoleIdle:
		return "idle"
	case RoleLight:
		return "light"
	case RoleHeavy:
		return "heavy"
	}
	return "unknown"
}

// Worker is a single device's serving state. It is a passive state
// machine: the caller owns time and asks the worker what it may do.
type Worker struct {
	id    int
	role  Role
	batch int
	// busyUntil is the completion time of the in-flight batch, or 0.
	busyUntil float64
	// loadingUntil is when a model switch completes, or 0.
	loadingUntil float64
}

// New returns an idle worker.
func New(id int) *Worker {
	return &Worker{id: id, batch: 1}
}

// Role returns the current role.
func (w *Worker) Role() Role { return w.role }

// Batch returns the configured batch size.
func (w *Worker) Batch() int { return w.batch }

// SetBatch reconfigures the batch size without a model switch.
// It panics on non-positive sizes.
func (w *Worker) SetBatch(b int) {
	if b <= 0 {
		panic(fmt.Sprintf("worker %d: batch must be positive, got %d", w.id, b))
	}
	w.batch = b
}

// Assign switches the worker to a role at time now. A role change
// incurs loadSeconds of model-loading downtime, beginning after any
// in-flight batch finishes. Assigning the current role only updates
// the batch size.
func (w *Worker) Assign(now float64, role Role, batch int, loadSeconds float64) {
	if batch > 0 {
		w.SetBatch(batch)
	}
	if role == w.role {
		return
	}
	w.role = role
	start := now
	if w.busyUntil > start {
		start = w.busyUntil
	}
	if loadSeconds < 0 {
		loadSeconds = 0
	}
	w.loadingUntil = start + loadSeconds
}

// Available reports whether the worker can start a batch at time now:
// it has a serving role, is not mid-batch, and is not loading a model.
func (w *Worker) Available(now float64) bool {
	if w.role == RoleIdle {
		return false
	}
	return now >= w.busyUntil && now >= w.loadingUntil
}

// ReadyAt returns the earliest time the worker could start a batch
// (ignoring queue availability). Idle-role workers return +Inf via ok=false.
func (w *Worker) ReadyAt() (float64, bool) {
	if w.role == RoleIdle {
		return 0, false
	}
	t := w.busyUntil
	if w.loadingUntil > t {
		t = w.loadingUntil
	}
	return t, true
}

// StartBatch marks the worker busy executing n queries until
// now+execSeconds and returns the completion time. It panics when the
// worker is not available, or n is not positive — both indicate
// scheduler bugs.
func (w *Worker) StartBatch(now float64, n int, execSeconds float64) float64 {
	if !w.Available(now) {
		panic(fmt.Sprintf("worker %d: StartBatch while unavailable at %v", w.id, now))
	}
	if n <= 0 {
		panic(fmt.Sprintf("worker %d: empty batch", w.id))
	}
	if execSeconds < 0 {
		panic(fmt.Sprintf("worker %d: negative exec time", w.id))
	}
	w.busyUntil = now + execSeconds
	return w.busyUntil
}

// FitPlan clamps a plan's pool sizes to a group of n workers: the heavy
// pool gives way first, and a light pool that alone exceeds the group
// takes every worker.
func FitPlan(n, needLight, needHeavy int) (light, heavy int) {
	if needLight+needHeavy > n {
		needHeavy = n - needLight
		if needHeavy < 0 {
			needLight, needHeavy = n, 0
		}
	}
	return needLight, needHeavy
}

// AssignRoles computes the next role of every worker of a group from
// a plan's pool sizes (fitted to the group by FitPlan), keeping workers
// that already hold a wanted role in place so a new plan reloads as few
// models as possible.
func AssignRoles(current []Role, needLight, needHeavy int) []Role {
	needLight, needHeavy = FitPlan(len(current), needLight, needHeavy)
	next := make([]Role, len(current))
	light, heavy := 0, 0
	for i, role := range current {
		switch {
		case role == RoleLight && light < needLight:
			next[i] = RoleLight
			light++
		case role == RoleHeavy && heavy < needHeavy:
			next[i] = RoleHeavy
			heavy++
		}
	}
	for i := range next {
		switch {
		case next[i] != RoleIdle:
		case light < needLight:
			next[i] = RoleLight
			light++
		case heavy < needHeavy:
			next[i] = RoleHeavy
			heavy++
		}
	}
	return next
}
