//go:build race

package experiment

// raceEnabled reports a race-detector build. TestTable1Shape then skips
// its goal sweep: it routes on one goroutine, so under the detector it
// would only add minutes to the race job.
const raceEnabled = true
