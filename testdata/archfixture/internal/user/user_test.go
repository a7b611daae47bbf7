package user

import (
	"testing"

	"repro/testdata/archfixture/internal/lib"
)

func TestFixture(t *testing.T) {
	if lib.Fixture().Area() != 4 {
		t.Fatal("fixture")
	}
}
