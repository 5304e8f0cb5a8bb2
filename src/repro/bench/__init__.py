"""Bench support: the paper's published numbers and the tables rendered from run reports."""
