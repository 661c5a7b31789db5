package linttest_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each fixture module seeds a violation for every diagnostic its
// analyzer reports, next to conforming code, so these tests prove both
// directions: the analyzer fires where it must and stays quiet where it
// must not.

func TestHotPathAllocFixture(t *testing.T) {
	linttest.Run(t, "testdata/hotpathalloc", lint.HotPathAlloc)
}

func TestStatsFlowFixture(t *testing.T) {
	linttest.Run(t, "testdata/statsflow", lint.StatsFlow)
}

func TestCacheKeyFixture(t *testing.T) {
	linttest.Run(t, "testdata/cachekey", lint.CacheKey)
}

func TestRegHygieneFixture(t *testing.T) {
	linttest.Run(t, "testdata/reghygiene", lint.RegHygiene)
}

func TestPhasePureFixture(t *testing.T) {
	linttest.Run(t, "testdata/phasepure", lint.PhasePure)
}

func TestSharedGuardFixture(t *testing.T) {
	linttest.Run(t, "testdata/sharedguard", lint.SharedGuard)
}

func TestDetSourceFixture(t *testing.T) {
	linttest.Run(t, "testdata/detsource", lint.DetSource)
}

// AnnotCheck has no waiver directive by design; its fixture's
// honored-waiver half is the conforming placements staying quiet.
func TestAnnotCheckFixture(t *testing.T) {
	linttest.Run(t, "testdata/annotcheck", lint.AnnotCheck)
}
