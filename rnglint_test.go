package yoda_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rngAllowlist names the packages allowed to construct their own RNGs.
// netsim owns the network's deterministic RNG; trace and the experiment
// drivers seed trial-level generators outside any event loop.
// Every other component must use the handle cached from its Network at
// construction — a private rand.New is exactly how the pre-PR-4 fig14
// map-iteration bug slipped in.
var rngAllowlist = map[string]bool{
	"internal/netsim":      true,
	"internal/trace":       true,
	"internal/experiments": true,
}

// TestNoStrayRNGConstruction is the lint half of the one-RNG rule: it
// fails if any non-test source file outside the allowlist calls
// rand.New. ci.sh runs the same check as a grep stage so it fails fast
// before the test suite.
func TestNoStrayRNGConstruction(t *testing.T) {
	var offenders []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") && path != "." {
				return filepath.SkipDir
			}
			if rngAllowlist[filepath.ToSlash(path)] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, "rand.New(") {
				offenders = append(offenders, path+":"+itoa(i+1)+": "+strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) > 0 {
		t.Fatalf("rand.New outside the netsim allowlist — use the network's RNG handle from Network.Rand at construction instead:\n%s",
			strings.Join(offenders, "\n"))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
