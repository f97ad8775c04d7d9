//go:build !poolpoison

package cluster

// Release-time poison hooks are no-ops in normal builds; see
// pool_poison.go for the poolpoison debug build.

const poolPoisonEnabled = false

func poisonFloats([]float64)     {}
func poisonQueries([]QueryMsg)   {}
func poisonItems([]CompleteItem) {}
func poisonFrame([]byte)         {}
