package rptreeproj_test

import (
	"testing"

	"gogreen/internal/rptreeproj"
	"gogreen/internal/testutil"
)

// The oracle cases live in testutil, and engine.TestRecycledEngines runs
// them over every recycling engine in the registry; these run them against
// this engine alone.

func TestPaperExample(t *testing.T)       { testutil.EnginePaperExample(t, rptreeproj.New()) }
func TestRandomized(t *testing.T)         { testutil.EngineRandomized(t, rptreeproj.New()) }
func TestNoRecycledPatterns(t *testing.T) { testutil.EngineNoRecycledPatterns(t, rptreeproj.New()) }
func TestDenseSingleGroup(t *testing.T)   { testutil.EngineDenseSingleGroup(t, rptreeproj.New()) }
func TestBadMinSupport(t *testing.T)      { testutil.EngineBadMinSupport(t, rptreeproj.New()) }
func TestEmptyCDB(t *testing.T)           { testutil.EngineEmptyCDB(t, rptreeproj.New()) }
