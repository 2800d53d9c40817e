"""Cold-process CLI benchmark for pnsheaf; see perfbench/README.md."""
