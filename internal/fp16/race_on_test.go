//go:build race

package fp16

// raceEnabled reports whether this test binary was built with the race
// detector; the exhaustive reference check skips itself there (2³²
// instrumented iterations take an hour and exercise no shared state).
const raceEnabled = true
