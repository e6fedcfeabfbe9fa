"""Crawl-engine benchmark: seeded workloads, end-to-end metrics with tracing
off, and a traced layer replay (see ``run.py``)."""
