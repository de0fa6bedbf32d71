"""lexnet: citation-network analysis for legal code corpora.

Builds a directed citation graph from a text corpus under explicit
linking rules, classifies singular vertices, identifies the rich club of
most-citing and most-cited codes, partitions the reduced network by
greedy modularity maximization, and assesses the result against
small-world and random baselines.

The package root holds only ``__version__`` and loads no submodule:
each name is imported from the module that defines it, as mapped in
README's "Library use".
"""

__version__ = "0.1.0"
