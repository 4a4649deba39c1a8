package table

import (
	"errors"
	"runtime/debug"
	"testing"
)

// TestGuardFaultPassesOtherPanics pins the guard's narrow scope: fn's
// own error comes back as is, a panic that is not a memory fault (here
// an index out of range) is re-raised rather than turned into
// ErrBackingFault, and the goroutine's panic-on-fault setting is
// restored on both paths. The fault path itself is exercised on a real
// truncated mapping by schemeio's TestTruncateWhileMapped.
func TestGuardFaultPassesOtherPanics(t *testing.T) {
	boom := errors.New("boom")
	if err := GuardFault(func() error { return boom }); err != boom {
		t.Fatalf("GuardFault returned %v, want fn's error", err)
	}
	if debug.SetPanicOnFault(false) {
		t.Fatal("panic-on-fault left set after a normal return")
	}
	var p any
	func() {
		defer func() { p = recover() }()
		GuardFault(func() error {
			var s []int
			_ = s[len(s)] // index out of range: a runtime.Error without Addr
			return nil
		})
	}()
	if p == nil {
		t.Fatal("an index-out-of-range panic was swallowed")
	}
	if err, ok := p.(error); ok && errors.Is(err, ErrBackingFault) {
		t.Fatalf("an index-out-of-range panic became %v", err)
	}
	if debug.SetPanicOnFault(false) {
		t.Fatal("panic-on-fault left set after a re-raised panic")
	}
}
