"""Developer tools; importable as ``tools.<name>`` from the repository root."""
