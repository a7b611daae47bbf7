// Command app is the root of the walker's fixture.
package main

import (
	"fmt"

	"repro/testdata/archfixture/internal/lib"
)

func main() {
	fmt.Println(lib.Total([]lib.Shape{lib.Square{Side: 3}}))
}
