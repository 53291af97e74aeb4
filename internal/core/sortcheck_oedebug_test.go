//go:build oedebug

package core

import (
	"strings"
	"testing"
)

// TestSortPosByKeyRejectsUnorderedPositions requires the oedebug build to
// panic on a sublist whose positions do not ascend, which sortPosByKey's
// radix path would sort into a wrong (key, position) order.
func TestSortPosByKeyRejectsUnorderedPositions(t *testing.T) {
	keys := []uint64{5, 3, 5, 3}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unordered positions did not panic under -tags oedebug")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "positions do not ascend") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	sortPosByKey([]int32{0, 2, 1, 3}, keys, nil)
}
