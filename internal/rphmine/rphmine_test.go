package rphmine_test

import (
	"testing"

	"gogreen/internal/rphmine"
	"gogreen/internal/testutil"
)

// The oracle cases live in testutil, and engine.TestRecycledEngines runs
// them over every recycling engine in the registry; these run them against
// this engine alone.

func TestPaperExample(t *testing.T)       { testutil.EnginePaperExample(t, rphmine.New()) }
func TestRandomized(t *testing.T)         { testutil.EngineRandomized(t, rphmine.New()) }
func TestNoRecycledPatterns(t *testing.T) { testutil.EngineNoRecycledPatterns(t, rphmine.New()) }
func TestDenseSingleGroup(t *testing.T)   { testutil.EngineDenseSingleGroup(t, rphmine.New()) }
func TestBadMinSupport(t *testing.T)      { testutil.EngineBadMinSupport(t, rphmine.New()) }
func TestEmptyCDB(t *testing.T)           { testutil.EngineEmptyCDB(t, rphmine.New()) }
