package main

import (
	"bytes"
	"testing"
)

// TestOutputIsFixed runs the example repeatedly: however its 24
// sessions interleave, it must print the same lines.
func TestOutputIsFixed(t *testing.T) {
	const want = `24 concurrent session requests against cpu@H1=300, cpu@H2=300, net:H1->H2=500
established + refused: 24
no book overdrawn or overfilled
after release: cpu@H1 300, cpu@H2 300, net:H1->H2 500
`
	for i := 0; i < 20; i++ {
		var out bytes.Buffer
		if err := run(&out); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got := out.String(); got != want {
			t.Fatalf("run %d printed:\n%s\nwant:\n%s", i, got, want)
		}
	}
}
