package driver

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// Main is the cmd/oevet entry point; it returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	var (
		baseline      string
		writeBaseline bool
		patterns      []string
	)
	for i := 0; i < len(args); i++ {
		switch a := args[i]; {
		case a == "-baseline" || a == "--baseline":
			if i+1 >= len(args) {
				fmt.Fprintln(stderr, "oevet: -baseline requires a file argument")
				return 1
			}
			i++
			baseline = args[i]
		case strings.HasPrefix(a, "-baseline="):
			baseline = strings.TrimPrefix(strings.TrimPrefix(a, "-"), "baseline=")
		case a == "-write-baseline" || a == "--write-baseline":
			writeBaseline = true
		case a == "-h" || a == "-help" || a == "--help":
			usage(stdout)
			return 0
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(stderr, "oevet: unknown flag %s\n", a)
			usage(stderr)
			return 1
		default:
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "oevet: %v\n", err)
		return 1
	}
	res, err := RunStandalone(dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "oevet: %v\n", err)
		return 1
	}
	for _, d := range res.Diagnostics {
		fmt.Fprintf(stderr, "%s: %s (%s)\n", d.Pos, d.Message, d.Analyzer)
	}
	exit := 0
	if len(res.Diagnostics) > 0 {
		fmt.Fprintf(stderr, "oevet: %d problem(s)\n", len(res.Diagnostics))
		exit = 1
	}
	if writeBaseline {
		if baseline == "" {
			baseline = ".oevet-baseline"
		}
		if err := WriteBaseline(baseline, res.IgnoresUsed); err != nil {
			fmt.Fprintf(stderr, "oevet: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "oevet: baseline %s pinned at %d ignore(s)\n", baseline, res.IgnoresUsed)
	} else if baseline != "" {
		if err := CheckBaseline(baseline, res.IgnoresUsed); err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			exit = 1
		}
	}
	if exit == 0 {
		fmt.Fprintf(stdout, "oevet: clean (%d justified ignore(s))\n", res.IgnoresUsed)
	}
	return exit
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: oevet [-baseline file] [-write-baseline] [packages]

Runs the OpenEmbedding invariant suite (lockorder, pmemdurability,
determinism, chargeflow, allocfree, epochfence, errwrap) over the
production files of the given package patterns (default ./...).

  -baseline file    compare the //oevet:ignore count against the pinned
                    census in file (both directions)
  -write-baseline   regenerate the baseline file instead of checking it
`)
}
