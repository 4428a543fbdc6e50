package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memcache"
	"repro/internal/tcpstore"
)

// TestSNATBlockOverflowPanics: yodabench's layout (SNATCount 8000) has
// room for four incarnations below port 65536. The fifth used to get a
// block that ran past the top and the sixth one that wrapped to port
// 2464, on top of live instances; now the fifth is refused by name.
func TestSNATBlockOverflowPanics(t *testing.T) {
	c := New(1)
	c.AddStoreServers(1, memcache.DefaultSimServerConfig())
	cfg := core.DefaultConfig()
	cfg.SNATCount = 8000
	defer func() {
		msg := fmt.Sprint(recover())
		if len(c.Yoda) != 4 {
			t.Fatalf("%d instances built, want the 4 that fit", len(c.Yoda))
		}
		for _, want := range []string{"incarnation 5", "SNATCount 8000", "60000-67999"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not name %q", msg, want)
			}
		}
	}()
	c.AddYodaN(6, cfg, tcpstore.DefaultConfig()) // 4 fit: 28000-59999
}

// TestSNATBlocksDisjointAcrossRollingUpgrade replays the incarnations the
// upgrade experiment creates — a fleet added in one go, then every slot
// restarted once, at the default SNATCount — at 10 instances, the paper's
// fleet and more than the experiment's own 4. After each AddYoda or
// RestartYoda, snatBase still answers for the incarnation just built, so
// the blocks read here are the ones the instances were given.
func TestSNATBlocksDisjointAcrossRollingUpgrade(t *testing.T) {
	const fleet = 10
	c := New(1)
	c.AddStoreServers(1, memcache.DefaultSimServerConfig())
	cfg := core.DefaultConfig()
	var bases []uint32
	for i := 0; i < fleet; i++ {
		c.AddYoda(cfg, tcpstore.DefaultConfig())
		bases = append(bases, uint32(c.snatBase(cfg.SNATCount)))
	}
	for i := 0; i < fleet; i++ {
		c.RestartYoda(i, cfg, tcpstore.DefaultConfig())
		bases = append(bases, uint32(c.snatBase(cfg.SNATCount)))
	}
	count := uint32(cfg.SNATCount)
	for i, a := range bases {
		if a < 20000 || a+count > 65536 {
			t.Fatalf("incarnation %d: block %d-%d outside 20000-65535", i+1, a, a+count-1)
		}
		for j, b := range bases[:i] {
			if a < b+count && b < a+count {
				t.Fatalf("incarnations %d and %d overlap: %d-%d and %d-%d",
					j+1, i+1, b, b+count-1, a, a+count-1)
			}
		}
	}
}
