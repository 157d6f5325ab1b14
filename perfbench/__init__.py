"""zrtrimer benchmark: see run.py."""
