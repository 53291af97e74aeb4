package determinism_test

import (
	"path/filepath"
	"testing"

	"openembedding/internal/analysis/determinism"
	"openembedding/internal/analysis/oeanalysistest"
)

func TestDeterminism(t *testing.T) {
	oeanalysistest.Run(t, determinism.Analyzer, filepath.Join("testdata", "src", "a"))
}

// TestDeterminismFaultCases pins the rules a fault schedule leans on: any
// rand stream (seeded or not), crypto/rand and the wall clock are reported,
// and a stateless hash of the inputs is not.
func TestDeterminismFaultCases(t *testing.T) {
	oeanalysistest.Run(t, determinism.Analyzer, filepath.Join("testdata", "src", "fault"))
}
