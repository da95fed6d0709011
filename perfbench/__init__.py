"""The repository benchmark: workloads, inputs, tracing; see README.md."""
