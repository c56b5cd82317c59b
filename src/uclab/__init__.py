"""uclab: numerical checks around union-closed families and entropy bounds.

The package re-exports nothing: import each name from its defining module
(`from uclab.coupling import delta_search`), so `import uclab` and each CLI
command load only the modules they need.
"""

__version__ = "0.1.0"

# the documented default seed; defined here so the CLI can resolve a seed
# without importing uclab.measures
DEFAULT_SEED = 1729
