package fleet

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// TestCandidateOrderDeterministic pins the placement contract:
// candidates() returns healthy ready nodes, then slow ready nodes, then
// saturated ones; within each tier fewer jobs in flight come first and
// the node name breaks ties; and the order is identical on every call.
// "In flight" is the live count of the node's last heartbeat plus the
// jobs delivered there since, so a delivery moves a node back and its
// next heartbeat clears the count. Two coordinators looking at the same
// fleet must walk candidates in the same order, or placement (and move
// targeting) diverges between them.
func TestCandidateOrderDeterministic(t *testing.T) {
	c := New(Config{HeartbeatEvery: time.Hour})
	defer c.Close()

	mk := func(name string, health string, live int, slow, fenced bool) *node {
		return &node{
			Name: name, Load: server.Load{Health: health, Live: live},
			Slow: slow, Fenced: fenced,
			lastBeat: time.Now(), fwd: obs.NewEWMA(0.3),
		}
	}
	c.mu.Lock()
	for _, n := range []*node{
		mk("alpha", server.HealthReady, 1, false, false),
		mk("bravo", server.HealthReady, 0, false, false),
		mk("charlie", server.HealthReady, 1, false, false), // ties alpha: the name decides
		mk("carol", server.HealthReady, 0, true, false),    // slow: demoted despite its idle queue
		mk("delta", server.HealthSaturated, 0, false, false),
		mk("echo", server.HealthReady, 0, false, true), // fenced: excluded
		mk("foxtrot", server.HealthDraining, 0, false, false),
	} {
		c.nodes[n.Name] = n
	}
	c.mu.Unlock()

	expect := func(when string, want ...string) {
		t.Helper()
		for call := 0; call < 3; call++ { // byte-for-byte repeatable
			var got []string
			for _, n := range c.candidates() {
				got = append(got, n.Name)
			}
			if len(got) != len(want) {
				t.Fatalf("%s, call %d: candidates = %v, want %v", when, call, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, call %d: candidates = %v, want %v", when, call, got, want)
				}
			}
		}
	}

	expect("by heartbeat load", "bravo", "alpha", "charlie", "carol", "delta")

	// Two deliveries to bravo since its last heartbeat put it behind
	// the nodes with one job in flight.
	c.moveJob("job-a", "bravo", time.Time{}, time.Now())
	c.moveJob("job-b", "bravo", time.Time{}, time.Time{})
	expect("after two deliveries to bravo", "alpha", "charlie", "bravo", "carol", "delta")

	// One delivery to alpha puts it behind charlie, its tie partner.
	c.moveJob("job-c", "alpha", time.Time{}, time.Now())
	expect("after one delivery to alpha", "charlie", "alpha", "bravo", "carol", "delta")

	// bravo's heartbeat reports both jobs live and clears its count...
	if err := c.Heartbeat("bravo", 0, server.Load{Health: server.HealthReady, Live: 2}); err != nil {
		t.Fatal(err)
	}
	expect("after bravo's heartbeat", "charlie", "alpha", "bravo", "carol", "delta")
	// ...and the next one, with both finished, brings it to the front.
	if err := c.Heartbeat("bravo", 0, server.Load{Health: server.HealthReady}); err != nil {
		t.Fatal(err)
	}
	expect("after bravo finished both", "bravo", "charlie", "alpha", "carol", "delta")
}
