package cluster

import (
	"fmt"
	"math"
)

// Validate checks a config reproduces the two published anchors within
// tol (fractional).
func (c Config) Validate(tol float64) error {
	t1024 := c.IterationTime(Fig8Mesh, 1024).Total()
	t16k := c.IterationTime(Fig8Mesh, 16384).Total()
	if math.Abs(t1024-75e-3)/75e-3 > tol {
		return fmt.Errorf("cluster: 600³ @1024 = %.1f ms, published 75 ms", t1024*1e3)
	}
	if math.Abs(t16k-6e-3)/6e-3 > tol {
		return fmt.Errorf("cluster: 600³ @16K = %.2f ms, published ~6 ms", t16k*1e3)
	}
	return nil
}
