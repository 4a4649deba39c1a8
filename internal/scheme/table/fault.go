package table

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
)

// ErrBackingFault marks container bytes that their backing could no
// longer serve after open: a mapped page that faulted because the file
// was truncated under its mapping, or a short pread. It lives here, not
// in schemeio, because the lazy table reader below schemeio raises it
// too; schemeio re-exports it.
var ErrBackingFault = errors.New("backing fault: container bytes unreadable")

// GuardFault runs fn with memory faults turned into panics on this
// goroutine (debug.SetPanicOnFault), restoring the previous setting on
// return, and maps a recovered fault to an error wrapping
// ErrBackingFault. Any other panic is re-raised. Readers of mapped
// container bytes call it once per decode unit (a table stripe, a whole
// scheme, the payload checksum), never per query, inside their
// sync.Once so a fault poisons the unit instead of killing the process.
func GuardFault(fn func() error) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if re, ok := p.(runtime.Error); ok {
			if f, ok := re.(interface{ Addr() uintptr }); ok {
				err = fmt.Errorf("%w: memory fault at %#x", ErrBackingFault, f.Addr())
				return
			}
		}
		panic(p)
	}()
	return fn()
}
