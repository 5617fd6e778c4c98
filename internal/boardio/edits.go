package boardio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// This file is the edit-script codec and the one builder of an edited
// problem (EditDesign). The codec reads the design deltas core.Edit
// describes from a line-oriented text format shared by `grr -edits` and
// grrd's POST /jobs/{id}/edit body:
//
//	block <minx> <miny> <maxx> <maxy>          new keepout, grid units
//	remove-net <name>                          drop every connection of the net
//	add-conn <ax> <ay> <bx> <by> <net> <class> <delayps>
//
// add-conn reuses the .con field layout ("-" for an empty net or class).
// Blank lines and '#' comments are ignored, as in every boardio format.

// ReadEdits parses the edits format.
func ReadEdits(r io.Reader) ([]core.Edit, error) {
	var out []core.Edit
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		fail := func(why string) error {
			return fmt.Errorf("boardio: edits line %d: %s: %q", lineNo, why, line)
		}
		switch f[0] {
		case "block":
			if len(f) != 5 {
				return nil, fail("block needs minx miny maxx maxy")
			}
			vals, err := atois(f[1:])
			if err != nil {
				return nil, fail(err.Error())
			}
			rect := geom.R(vals[0], vals[1], vals[2], vals[3])
			if rect.Empty() {
				return nil, fail("empty block rectangle")
			}
			out = append(out, core.Edit{Op: core.EditBlock, Rect: rect})
		case "remove-net":
			if len(f) != 2 {
				return nil, fail("remove-net needs a net name")
			}
			out = append(out, core.Edit{Op: core.EditRemoveNet, Net: f[1]})
		case "add-conn":
			if len(f) != 8 {
				return nil, fail("add-conn needs ax ay bx by net class delay")
			}
			coords, err := atois(f[1:5])
			if err != nil {
				return nil, fail(err.Error())
			}
			delay, err := strconv.ParseFloat(f[7], 64)
			if err != nil {
				return nil, fail("bad delay " + f[7])
			}
			c := core.Connection{
				A: geom.Pt(coords[0], coords[1]), B: geom.Pt(coords[2], coords[3]),
				TargetDelayPs: delay,
			}
			if f[5] != "-" {
				c.Net = f[5]
			}
			if f[6] != "-" {
				c.Class = f[6]
			}
			out = append(out, core.Edit{Op: core.EditAddConn, Conn: c})
		default:
			return nil, fail("unknown edit directive " + f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// EditDesign builds the edited problem an edit script describes, for
// `grr -edits` and grrd's POST /jobs/{id}/edit alike, so both refuse the
// same scripts and route the same board (DESIGN §15.3). It checks every
// edit against d's routing grid, appends the block rectangles to a copy
// of d as keepouts, trial-places that copy — pins, then d's keepouts,
// then the blocks — and derives the connections with core.EditConns.
// The placed board is ready to route. d and conns are not modified.
// Errors name the edit and carry no package prefix; callers add their
// own.
func EditDesign(d *netlist.Design, conns []core.Connection, edits []core.Edit) (*netlist.Design, *board.Board, []core.Connection, error) {
	if len(edits) == 0 {
		return nil, nil, nil, errors.New("edit: no edits")
	}
	d2 := *d
	d2.Keepouts = append([]geom.Rect(nil), d.Keepouts...)
	bounds := d2.GridConfig().Bounds()
	for i, e := range edits {
		switch e.Op {
		case core.EditBlock:
			if e.Rect.Empty() || !bounds.Contains(e.Rect) {
				return nil, nil, nil, fmt.Errorf("edit %d: block %v outside the %v routing grid", i, e.Rect, bounds)
			}
			d2.Keepouts = append(d2.Keepouts, e.Rect)
		case core.EditRemoveNet:
			if e.Net == "" {
				return nil, nil, nil, fmt.Errorf("edit %d: remove-net needs a net name", i)
			}
		case core.EditAddConn:
			if !e.Conn.A.In(bounds) || !e.Conn.B.In(bounds) {
				return nil, nil, nil, fmt.Errorf("edit %d: add-conn %v-%v outside the %v routing grid",
					i, e.Conn.A, e.Conn.B, bounds)
			}
		default:
			return nil, nil, nil, fmt.Errorf("edit %d: unknown op %d", i, e.Op)
		}
	}
	// A block overlapping a pin or another keepout fails here, not in
	// every attempt of a route.
	b, err := board.New(d2.GridConfig())
	if err != nil {
		return nil, nil, nil, fmt.Errorf("edit: %w", err)
	}
	if err := d2.PlacePins(b); err != nil {
		return nil, nil, nil, fmt.Errorf("edit: %w", err)
	}
	return &d2, b, core.EditConns(conns, edits), nil
}
