package experiment

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// engineRow is one Table 1 board routed under both engines: what the
// goal-engine gate reads.
type engineRow struct {
	Board                         string
	Conns                         int
	ClassicRouted, GoalRouted     int
	ClassicExpanded, GoalExpanded int
}

// leeHeavy is the classic expansion count from which a row, or a whole
// sweep, carries enough Lee traffic for a strict comparison.
const leeHeavy = 10000

// engineGate enforces the goal-engine contract (DESIGN §15.1) over a
// sweep and returns every violation:
//
//   - routed parity per row within max(1, conns/50): the heuristic
//     changes the order of exploration, not what gets routed, but on an
//     over-congested board (kdj11-2L) different tie-breaks cascade into
//     slightly different rip-up histories;
//   - strictly fewer goal expansions on a row where classic expands at
//     least leeHeavy nodes, and at most classic + classic/6 on a smaller
//     row, where a handful of floods can tie-break either way;
//   - at least 20% fewer goal expansions in aggregate, when the classic
//     total reaches leeHeavy; below that the sweep routes almost
//     everything with the optimal strategies and compares noise.
func engineGate(rows []engineRow) error {
	var errs []error
	var classic, goal int
	for _, r := range rows {
		classic += r.ClassicExpanded
		goal += r.GoalExpanded
		if skew := max(1, r.Conns/50); r.GoalRouted < r.ClassicRouted-skew || r.GoalRouted > r.ClassicRouted+skew {
			errs = append(errs, fmt.Errorf("%s: goal engine routed %d of %d, classic %d: beyond the parity allowance of %d",
				r.Board, r.GoalRouted, r.Conns, r.ClassicRouted, skew))
		}
		if r.ClassicExpanded >= leeHeavy && r.GoalExpanded >= r.ClassicExpanded {
			errs = append(errs, fmt.Errorf("%s: goal engine expanded %d nodes, classic %d: no improvement on a Lee-heavy row",
				r.Board, r.GoalExpanded, r.ClassicExpanded))
		}
		if r.ClassicExpanded < leeHeavy && r.GoalExpanded > r.ClassicExpanded+r.ClassicExpanded/6 {
			errs = append(errs, fmt.Errorf("%s: goal engine expanded %d nodes, classic %d: beyond the small-row allowance of classic/6",
				r.Board, r.GoalExpanded, r.ClassicExpanded))
		}
	}
	if classic >= leeHeavy && goal*10 > classic*8 {
		errs = append(errs, fmt.Errorf("goal engine expanded %d nodes across the sweep, classic %d: less than the required 20%% reduction in aggregate",
			goal, classic))
	}
	return errors.Join(errs...)
}

// TestEngineGate pins each threshold of engineGate at its boundary with
// synthetic rows. A case that must fail names the check it must fail,
// so a weakened threshold cannot hide behind another check firing.
func TestEngineGate(t *testing.T) {
	// ballast is a Lee-heavy row that passes every check and dominates
	// the aggregate, so a case row is judged by its per-row checks alone.
	ballast := engineRow{Board: "ballast", Conns: 1000, ClassicRouted: 1000, GoalRouted: 1000, ClassicExpanded: 1_000_000}
	parity := func(conns, classic, goal int) []engineRow {
		return []engineRow{ballast, {Board: "row", Conns: conns, ClassicRouted: classic, GoalRouted: goal}}
	}
	expand := func(classic, goal int) []engineRow {
		return []engineRow{ballast, {Board: "row", Conns: 100, ClassicRouted: 100, GoalRouted: 100, ClassicExpanded: classic, GoalExpanded: goal}}
	}
	aggregate := func(pairs ...int) []engineRow {
		var rows []engineRow
		for i := 0; i < len(pairs); i += 2 {
			rows = append(rows, engineRow{Board: fmt.Sprint("row", i/2), Conns: 100, ClassicRouted: 100, GoalRouted: 100,
				ClassicExpanded: pairs[i], GoalExpanded: pairs[i+1]})
		}
		return rows
	}
	cases := []struct {
		name string
		rows []engineRow
		want string // "" passes; otherwise a substring of the violation
	}{
		{"parity skew of conns/50 ahead", parity(1000, 900, 920), ""},
		{"parity skew of conns/50 behind", parity(1000, 900, 880), ""},
		{"parity skew one past conns/50 ahead", parity(1000, 900, 921), "parity allowance"},
		{"parity skew one past conns/50 behind", parity(1000, 900, 879), "parity allowance"},
		{"parity skew of the floor of one", parity(49, 40, 41), ""},
		{"parity skew one past the floor of one", parity(49, 40, 42), "parity allowance"},
		{"Lee-heavy row one expansion fewer", expand(leeHeavy, leeHeavy-1), ""},
		{"Lee-heavy row with equal expansions", expand(leeHeavy, leeHeavy), "Lee-heavy row"},
		{"small row just under Lee-heavy with equal expansions", expand(leeHeavy-1, leeHeavy-1), ""},
		{"small row at classic + classic/6", expand(6000, 7000), ""},
		{"small row one past classic + classic/6", expand(6000, 7001), "small-row allowance"},
		{"aggregate of exactly 0.8x", aggregate(100_000, 80_000), ""},
		{"aggregate one expansion past 0.8x", aggregate(100_000, 80_001), "20% reduction"},
		{"classic total under leeHeavy skips the aggregate", aggregate(5000, 5000, 4999, 4999), ""},
		{"classic total of exactly leeHeavy checks the aggregate", aggregate(5000, 5000, 5000, 5000), "20% reduction"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := engineGate(c.rows)
			switch {
			case c.want == "" && err != nil:
				t.Errorf("gate failed: %v", err)
			case c.want != "" && err == nil:
				t.Errorf("gate passed, want a %q violation", c.want)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Errorf("gate failed with %v, want a %q violation", err, c.want)
			}
		})
	}
}
