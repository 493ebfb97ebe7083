package rpfptree_test

import (
	"testing"

	"gogreen/internal/rpfptree"
	"gogreen/internal/testutil"
)

// The oracle cases live in testutil, and engine.TestRecycledEngines runs
// them over every recycling engine in the registry; these run them against
// this engine alone.

func TestPaperExample(t *testing.T)       { testutil.EnginePaperExample(t, rpfptree.New()) }
func TestRandomized(t *testing.T)         { testutil.EngineRandomized(t, rpfptree.New()) }
func TestNoRecycledPatterns(t *testing.T) { testutil.EngineNoRecycledPatterns(t, rpfptree.New()) }
func TestDenseSingleGroup(t *testing.T)   { testutil.EngineDenseSingleGroup(t, rpfptree.New()) }
func TestBadMinSupport(t *testing.T)      { testutil.EngineBadMinSupport(t, rpfptree.New()) }
func TestEmptyCDB(t *testing.T)           { testutil.EngineEmptyCDB(t, rpfptree.New()) }
