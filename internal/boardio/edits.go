package boardio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
)

// This file is the edit-script codec: the design deltas core.EditConns
// and the edited board take (core.Edit), as a line-oriented text format
// shared by `grr -edits` and grrd's POST /jobs/{id}/edit body:
//
//	block <minx> <miny> <maxx> <maxy>          new keepout, grid units
//	remove-net <name>                          drop every connection of the net
//	add-conn <ax> <ay> <bx> <by> <net> <class> <delayps>
//
// add-conn reuses the .con field layout ("-" for an empty net or class).
// Blank lines and '#' comments are ignored, as in every boardio format.

// WriteEdits serializes an edit list.
func WriteEdits(w io.Writer, edits []core.Edit) error {
	bw := bufio.NewWriter(w)
	for i, e := range edits {
		switch e.Op {
		case core.EditBlock:
			fmt.Fprintf(bw, "block %d %d %d %d\n", e.Rect.MinX, e.Rect.MinY, e.Rect.MaxX, e.Rect.MaxY)
		case core.EditRemoveNet:
			fmt.Fprintf(bw, "remove-net %s\n", e.Net)
		case core.EditAddConn:
			c := e.Conn
			fmt.Fprintf(bw, "add-conn %d %d %d %d %s %s %g\n",
				c.A.X, c.A.Y, c.B.X, c.B.Y, nameOr(c.Net, "-"), nameOr(c.Class, "-"), c.TargetDelayPs)
		default:
			return fmt.Errorf("boardio: edit %d has unknown op %d", i, e.Op)
		}
	}
	return bw.Flush()
}

// ReadEdits parses the WriteEdits format.
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
