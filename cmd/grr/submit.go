package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/server"
)

// runSubmitBatch posts the positional .brd files to a grrd daemon or
// fleet coordinator as one POST /jobs/batch request. Every job in the
// batch inherits -deadline as its end-to-end budget (the server pins
// each job's absolute deadline at its own admission). The batch call
// itself is all-or-nothing only at the transport level: individual jobs
// are accepted or refused independently, and each refusal is reported
// with its HTTP code.
//
// Exit 0 when every job was accepted, 1 when any job was refused or a
// file could not be read.
func runSubmitBatch(baseURL string, deadline time.Duration, files []string) int {
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "grr: -submit-batch needs at least one .brd file argument")
		return exitUsage
	}
	req := server.BatchRequest{Jobs: make([]server.JobSpec, 0, len(files))}
	if deadline > 0 {
		ms := deadline.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.DeadlineMs = &ms
	}
	for _, path := range files {
		design, err := os.ReadFile(path)
		if err != nil {
			return fail(err)
		}
		req.Jobs = append(req.Jobs, server.JobSpec{Design: string(design)})
	}

	body, err := json.Marshal(req)
	if err != nil {
		return fail(err)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(strings.TrimRight(baseURL, "/")+"/jobs/batch",
		"application/json", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		fmt.Fprintf(os.Stderr, "grr: batch refused: %d %s\n", resp.StatusCode, e.Error)
		return exitInternal
	}
	var br server.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return fail(fmt.Errorf("bad batch response: %w", err))
	}
	if len(br.Jobs) != len(files) {
		return fail(fmt.Errorf("batch response has %d results for %d jobs", len(br.Jobs), len(files)))
	}

	code := exitOK
	for i, r := range br.Jobs {
		switch {
		case r.Status != nil:
			fmt.Printf("%s\t%s\t%s\n", files[i], r.Status.ID, r.Status.State)
		default:
			fmt.Printf("%s\tREFUSED %d\t%s\n", files[i], r.Code, r.Error)
			code = exitInternal
		}
	}
	fmt.Fprintf(os.Stderr, "grr: %d/%d accepted\n", br.Accepted, len(files))
	return code
}
