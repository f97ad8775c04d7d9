// Package deadcode_decl is the in-scope fixture; deadcode_use, out of
// scope, uses part of it.
package deadcode_decl

import "fmt"

func Used() int   { return helper() } // used from deadcode_use
func helper() int { return 1 }        // used from this package
func Unused()     {}                  // want `Unused is used by no non-test file`

func recursive(n int) int { return recursive(n - 1) } // want `recursive is used by no non-test file`

type T struct{ n int }

func (t *T) Called() int    { return t.n }
func (t *T) Uncalled() int  { return t.n }             // want `Uncalled is used by no non-test file`
func (t *T) String() string { return fmt.Sprint(t.n) } // fmt.Stringer

type E struct{ err error }

func (e *E) Error() string { return e.err.Error() }
func (e *E) Unwrap() error { return e.err }

type Sink interface{ Put(int) }
type sink struct{}

func (sink) Put(int) {}
func (sink) Extra()  {} // want `Extra is used by no non-test file`

var DefaultSink Sink = sink{}

type Mode int

const (
	ModeA Mode = iota // its block has a used member
	ModeB
)

const (
	LoneA = iota // want `LoneA is used by no non-test file`
	LoneB        // want `LoneB is used by no non-test file`
)

var UnusedVar = 2 // want `UnusedVar is used by no non-test file`

type self struct{ next *self } // want `self is used by no non-test file`

func (s *self) Walk() *self { return s.next } // want `Walk is used by no non-test file`

//diffvet:allow deadcode — fixture keeper; covers its methods
type Kept struct{}

func (Kept) Method() {}
func init()          {}
