package deadcode_orphan // want `package deadcode_orphan is imported by no non-test file of another package`

func Solve() int  { return helper() } //diffvet:allow deadcode — a keeper, which roots helper: the package is still dead
func helper() int { return 1 }
