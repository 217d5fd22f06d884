"""Name of the flow solver, for the end-to-end benchmark's report header."""


# Exists only because benchmarks/e2e/run.py imports it and prints the result.
def default_backend_name() -> str:
    return "python"
