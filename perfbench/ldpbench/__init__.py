"""The LDP pipeline benchmark: workloads, tracing and metric extraction."""
