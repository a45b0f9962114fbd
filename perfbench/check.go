package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
)

// timingField matches the wall-clock fields of the JSON documents
// (time_seconds, mc_time_seconds, freeze_time_seconds); everything
// else in a response is deterministic.
var timingField = regexp.MustCompile(`("[a-z_]*time_seconds":\s*)-?[0-9][0-9.eE+-]*`)

// normalize zeroes the timing fields of a JSON document.
func normalize(b []byte) []byte { return timingField.ReplaceAll(b, []byte("${1}0")) }

// references derives each op's expected response from the CLIs, which
// the repository's parity contract holds byte-identical to the service
// once timing fields are zeroed. Two CLIs run at a time.
func references(binDir, workDir string, ops []op) ([][]byte, error) {
	gdir := filepath.Join(workDir, "graphs")
	if err := os.MkdirAll(gdir, 0o755); err != nil {
		return nil, err
	}
	refs := make([][]byte, len(ops))
	errs := make([]error, len(ops))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i := range ops {
		o := &ops[i]
		var file string
		if o.graph != nil {
			file = filepath.Join(gdir, fmt.Sprintf("op%d.json", i))
			if err := os.WriteFile(file, o.graph, 0o644); err != nil {
				return nil, err
			}
		}
		args := o.cli(file)
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			var stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(binDir, args[0]), args[1:]...)
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				errs[i] = fmt.Errorf("reference %s: %v: %s", strings.Join(args, " "), err, stderr.Bytes())
				return
			}
			refs[i] = normalize(out)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// checkResponse reports whether a response is the right answer: a 200
// whose timing-zeroed body equals the CLI reference.
func checkResponse(ref []byte, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	got := normalize(body)
	if bytes.Equal(got, ref) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(ref) && got[i] == ref[i] {
		i++
	}
	lo := max(i-60, 0)
	return fmt.Errorf("body differs from reference at byte %d: got %q, want %q",
		i, got[lo:min(i+60, len(got))], ref[lo:min(i+60, len(ref))])
}
