package worker

import (
	"fmt"
	"testing"
)

func TestNewWorkerIdle(t *testing.T) {
	w := New(3)
	if w.id != 3 {
		t.Errorf("ID = %d", w.id)
	}
	if w.Role() != RoleIdle {
		t.Errorf("new worker role = %v", w.Role())
	}
	if w.Available(0) {
		t.Error("idle-role worker must not be available")
	}
	if _, ok := w.ReadyAt(); ok {
		t.Error("idle-role worker has no ReadyAt")
	}
}

func TestAssignAndLoadDelay(t *testing.T) {
	w := New(0)
	w.Assign(10, RoleLight, 4, 3)
	if w.Role() != RoleLight || w.Batch() != 4 {
		t.Errorf("role/batch = %v/%d", w.Role(), w.Batch())
	}
	if w.Available(11) {
		t.Error("worker should be loading until 13")
	}
	if !w.Available(13) {
		t.Error("worker should be ready at 13")
	}
	at, ok := w.ReadyAt()
	if !ok || at != 13 {
		t.Errorf("ReadyAt = %v, %v", at, ok)
	}
}

func TestAssignSameRoleNoReload(t *testing.T) {
	w := New(0)
	w.Assign(0, RoleHeavy, 2, 5)
	if !w.Available(5) {
		t.Fatal("not ready after load")
	}
	// Same role, new batch: no new load delay.
	w.Assign(6, RoleHeavy, 8, 5)
	if !w.Available(6) {
		t.Error("same-role reassignment must not reload")
	}
	if w.Batch() != 8 {
		t.Errorf("batch = %d", w.Batch())
	}
}

func TestAssignWaitsForInFlightBatch(t *testing.T) {
	w := New(0)
	w.Assign(0, RoleLight, 2, 0)
	w.StartBatch(0, 2, 4) // busy until 4
	w.Assign(1, RoleHeavy, 2, 3)
	// Load begins after the batch: ready at 4 + 3 = 7.
	if w.Available(6) {
		t.Error("should still be loading at 6")
	}
	if !w.Available(7) {
		t.Error("should be ready at 7")
	}
}

func TestStartBatchAccounting(t *testing.T) {
	w := New(0)
	w.Assign(0, RoleLight, 4, 0)
	done := w.StartBatch(1, 3, 2)
	if done != 3 {
		t.Errorf("done = %v", done)
	}
	if w.Available(2) {
		t.Error("busy worker available")
	}
	if !w.Available(3) {
		t.Error("worker should be free at completion time")
	}
}

func TestStartBatchPanics(t *testing.T) {
	cases := []func(*Worker){
		func(w *Worker) { w.StartBatch(0, 1, 1) },                                // idle role
		func(w *Worker) { w.Assign(0, RoleLight, 1, 5); w.StartBatch(0, 1, 1) },  // loading
		func(w *Worker) { w.Assign(0, RoleLight, 1, 0); w.StartBatch(0, 0, 1) },  // empty batch
		func(w *Worker) { w.Assign(0, RoleLight, 1, 0); w.StartBatch(0, 1, -1) }, // negative exec
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn(New(0))
		}()
	}
}

func TestSetBatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for batch 0")
		}
	}()
	New(0).SetBatch(0)
}

func TestNegativeLoadClamped(t *testing.T) {
	w := New(0)
	w.Assign(5, RoleHeavy, 1, -2)
	if !w.Available(5) {
		t.Error("negative load seconds should clamp to 0")
	}
}

// TestAssignRoles pins the keep-in-place assignment both the
// simulator's plan application and the cluster controller (per shard
// group) go through, including the clamp of a plan that asks for more
// workers than the group has.
func TestAssignRoles(t *testing.T) {
	const I, L, H = RoleIdle, RoleLight, RoleHeavy
	for _, tc := range []struct {
		name                 string
		current              []Role
		needLight, needHeavy int
		want                 []Role
	}{
		{"fresh group fills light first", []Role{I, I, I, I}, 2, 1, []Role{L, L, H, I}},
		{"existing roles stay in place", []Role{L, H, I, L}, 1, 2, []Role{L, H, H, I}},
		{"surplus light worker turns heavy", []Role{L, L, L}, 1, 2, []Role{L, H, H}},
		{"shrinking plan idles the tail", []Role{L, H, L, H}, 1, 1, []Role{L, H, I, I}},
		{"unchanged plan moves nobody", []Role{H, L, I}, 1, 1, []Role{H, L, I}},
		{"oversized plan: heavy gives way", []Role{I, H, H, I}, 3, 3, []Role{L, H, L, L}},
		{"oversized light pool takes everyone", []Role{H, I, L}, 5, 2, []Role{L, L, L}},
		{"empty group", nil, 2, 2, []Role{}},
	} {
		got := AssignRoles(tc.current, tc.needLight, tc.needHeavy)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: AssignRoles(%v, %d, %d) = %v, want %v",
				tc.name, tc.current, tc.needLight, tc.needHeavy, got, tc.want)
		}
	}
}

func TestRoleString(t *testing.T) {
	if RoleIdle.String() != "idle" || RoleLight.String() != "light" || RoleHeavy.String() != "heavy" || Role(9).String() != "unknown" {
		t.Error("role strings wrong")
	}
}
