// Package lib is the reachability walker's fixture: TestArchWalkerFixture
// pins what the walker finds here.
package lib

// Shape is called through by Total.
type Shape interface{ Area() int }

// Square's Area is reached only through Shape.Area.
type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

// Total is called from main.
func Total(shapes []Shape) int {
	sum := 0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum + defaultSide
}

// defaultSide's initialiser is the only reference to viaVar.
var defaultSide = viaVar()

func viaVar() int { return 1 }

// Fixture is used only by another package's test.
func Fixture() Square { return Square{Side: helper()} }

// helper is reached only through Fixture.
func helper() int { return 2 }

// Unused is reached by nothing.
func Unused() int { return 3 }
