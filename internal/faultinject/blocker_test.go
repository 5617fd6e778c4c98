package faultinject

import (
	"testing"
	"time"

	"repro/internal/layer"
)

// TestBlockerHoldsNthCall drives a blocker directly: the second
// AddSegment attempt must not return until Release, and the call is
// allowed (not vetoed) once it does.
func TestBlockerHoldsNthCall(t *testing.T) {
	bl := BlockAt(2)

	if !bl.AllowAddSegment(0, 0, 0, 1, layer.ConnID(1)) {
		t.Fatal("call 1 blocked or vetoed")
	}

	done := make(chan bool)
	go func() {
		done <- bl.AllowAddSegment(0, 1, 0, 1, layer.ConnID(1))
	}()

	select {
	case <-done:
		t.Fatal("call 2 returned before Release")
	case <-time.After(20 * time.Millisecond):
	}
	if !bl.Fired() {
		t.Fatal("blocker did not report firing")
	}

	bl.Release()
	select {
	case ok := <-done:
		if !ok {
			t.Error("blocked call was vetoed; Blocker must always allow")
		}
	case <-time.After(time.Second):
		t.Fatal("call 2 still blocked after Release")
	}

	// Later calls pass straight through, and Release is idempotent.
	bl.Release()
	if !bl.AllowAddSegment(0, 2, 0, 1, layer.ConnID(1)) {
		t.Error("call 3 vetoed")
	}
}

func TestBlockerExemptsPermanentOwners(t *testing.T) {
	bl := BlockAt(1)
	done := make(chan struct{})
	go func() {
		bl.AllowAddSegment(0, 0, 0, 1, layer.ConnID(-1)) // pin placement must never block
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("permanent-owner placement blocked")
	}
	if bl.Fired() {
		t.Error("permanent-owner placement consumed the schedule")
	}
}
