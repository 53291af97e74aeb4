// Command oevet runs the OpenEmbedding invariant analyzer suite: lockorder,
// pmemdurability, determinism, chargeflow, allocfree, epochfence and errwrap
// (see internal/analysis and DESIGN.md §8, §13). Packages are analyzed in
// dependency order, so cross-package facts flow:
//
//	go run ./cmd/oevet -baseline .oevet-baseline ./...
package main

import (
	"os"

	"openembedding/internal/analysis/driver"
)

func main() {
	os.Exit(driver.Main(os.Args[1:], os.Stdout, os.Stderr))
}
