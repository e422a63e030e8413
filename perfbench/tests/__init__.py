"""Tests for the benchmark's own code (not part of the tier-1 suite)."""
