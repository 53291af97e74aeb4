//go:build !oedebug

package core

// checkAscending is sortPosByKey's precondition check: in release builds it
// is empty; -tags oedebug (sortcheck_oedebug.go) panics on a violation.
func checkAscending(pos []int32) {}
