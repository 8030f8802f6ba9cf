package meridian

// The black-box tests share internal_test.go's helpers.
var (
	Prober = prober
	AllIDs = allIDs
)
