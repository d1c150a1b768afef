"""mvbench: the standing benchmark (see README.md in this directory)."""
