// Command qostrace reconstructs causal distributed-trace span trees
// from a JSONL event stream (simqos -trace, with -trace-sample or
// -chaos) and prints the analysis: per-root-kind latency quantiles,
// critical-path phase/route attribution, typed-event counts, p99
// outlier exemplars with their critical paths, and the completeness
// counters (orphan spans, rootless and multi-root traces).
//
// Usage:
//
//	qostrace [-input run.jsonl] [-fail-incomplete] [-paths 0]
//
// -input defaults to stdin (also spelled -). With -fail-incomplete the
// command exits 1 when any trace reconstructs incompletely — the CI
// gate behind the chaos trace artifact. With -paths N, the full
// critical path of the N slowest traces is printed after the report.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"qosres/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the command with its arguments and streams; it returns the
// exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qostrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		input          = fs.String("input", "-", "JSONL trace file to analyze (- for stdin)")
		failIncomplete = fs.Bool("fail-incomplete", false, "exit 1 when any trace reconstructs incompletely (orphan spans, rootless or multi-root traces)")
		paths          = fs.Int("paths", 0, "additionally print the critical path of the N slowest traces")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	r := stdin
	if *input != "-" && *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintln(stderr, "qostrace:", err)
			return 1
		}
		defer f.Close()
		r = f
	}
	events, err := trace.ReadJSONL(r)
	if err != nil {
		fmt.Fprintln(stderr, "qostrace:", err)
		return 1
	}
	forest := FromEvents(events)
	Report(stdout, forest)

	if *paths > 0 {
		trees := make([]*Tree, 0, len(forest.Trees))
		for _, t := range forest.Trees {
			if t.Root != nil {
				trees = append(trees, t)
			}
		}
		sort.Slice(trees, func(i, j int) bool {
			return trees[i].Root.Duration > trees[j].Root.Duration
		})
		if len(trees) > *paths {
			trees = trees[:*paths]
		}
		fmt.Fprintf(stdout, "\nslowest %d critical path(s):\n", len(trees))
		for _, t := range trees {
			fmt.Fprintf(stdout, "  %s: %s\n", t.TraceID, PathString(t.CriticalPath()))
		}
	}

	if *failIncomplete && !forest.Complete() {
		fmt.Fprintf(stderr, "qostrace: incomplete forest: %d orphan spans, %d rootless, %d multi-root trace(s)\n",
			forest.OrphanSpans, forest.Rootless, forest.MultiRoot)
		return 1
	}
	return 0
}
