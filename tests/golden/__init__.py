"""Golden result corpus: locked payloads of a fixed set of cells and jobs."""
