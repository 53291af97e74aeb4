//go:build oedebug

package core

import "fmt"

// checkAscending panics unless pos ascends strictly. sortPosByKey's radix
// path keeps each run's positions in the order they arrive, so a sublist
// out of position order would come out in a wrong (key, position) order,
// and push would apply a key's gradients out of batch order without an
// error.
func checkAscending(pos []int32) {
	for i := 1; i < len(pos); i++ {
		if pos[i] <= pos[i-1] {
			panic(fmt.Sprintf("core: sortPosByKey: positions do not ascend: pos[%d] = %d after %d", i, pos[i], pos[i-1]))
		}
	}
}
