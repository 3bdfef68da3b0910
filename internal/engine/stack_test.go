package engine

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// panicSiteLine is the line of the panic in deepPanic, recorded on the
// first call only so the benchmark measures the panic, not runtime.Caller.
var panicSiteLine int

// deepPanic recurses depth frames and then panics, so the recovered stack
// has the panic site several frames below the attempt loop.
//
//go:noinline
func deepPanic(depth int) int {
	if depth > 0 {
		return deepPanic(depth-1) + 1
	}
	if panicSiteLine == 0 {
		_, _, line, _ := runtime.Caller(0)
		panicSiteLine = line + 3 // the panic statement below
	}
	panic("deep boom")
}

// firstUserFrame returns the first "function\n\tfile:line" entry of a
// Stack dump whose function is not in package runtime.
func firstUserFrame(t *testing.T, stack []byte) (fn, loc string) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(stack))
	for sc.Scan() {
		fn = sc.Text()
		if !sc.Scan() {
			t.Fatalf("stack ends after function line %q:\n%s", fn, stack)
		}
		if !strings.HasPrefix(fn, "runtime.") {
			return fn, strings.TrimPrefix(sc.Text(), "\t")
		}
	}
	t.Fatalf("no non-runtime frame in stack:\n%s", stack)
	return "", ""
}

func TestPanicErrorStackNamesPanicSite(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Minute} {
		t.Run(fmt.Sprintf("timeout=%v", timeout), func(t *testing.T) {
			var got error
			Attempt(func() int { return deepPanic(5) }, nil,
				func(err error) int { got = err; return -1 },
				Policy{AttemptTimeout: timeout})
			pe, ok := got.(*PanicError)
			if !ok {
				t.Fatalf("fallback err = %T %v, want *PanicError", got, got)
			}
			if want := "engine: recovered panic: deep boom"; pe.Error() != want {
				t.Errorf("Error() = %q, want %q", pe.Error(), want)
			}
			stack := pe.Stack()
			fn, loc := firstUserFrame(t, stack)
			if !strings.HasSuffix(fn, ".deepPanic") {
				t.Errorf("first non-runtime frame = %q, want deepPanic\n%s", fn, stack)
			}
			if want := fmt.Sprintf("stack_test.go:%d", panicSiteLine); !strings.HasSuffix(loc, want) {
				t.Errorf("panic site = %q, want suffix %q\n%s", loc, want, stack)
			}
			if n := strings.Count(string(stack), ".deepPanic\n"); n != 6 {
				t.Errorf("stack holds %d deepPanic frames, want 6\n%s", n, stack)
			}
		})
	}
}

// BenchmarkAttemptPanic is the cost of one recovered panic twelve frames
// below Attempt: the recovery, the PanicError and the fallback verdict.
func BenchmarkAttemptPanic(b *testing.B) {
	op := func() int { return deepPanic(11) }
	fallback := func(error) int { return -1 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v, _ := Attempt(op, nil, fallback, Policy{}); v != -1 {
			b.Fatalf("v = %d, want fallback -1", v)
		}
	}
}
