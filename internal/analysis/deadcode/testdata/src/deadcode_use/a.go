package deadcode_use

import (
	"deadcode_decl"
	"deadcode_fields"
)

func Run() int {
	t := &deadcode_decl.T{}
	var _ error = &deadcode_decl.E{}
	_ = deadcode_decl.DefaultSink
	_ = deadcode_decl.ModeB
	return deadcode_decl.Used() + t.Called() + deadcode_fields.Run()
}

func unused() {} // out of scope
