"""Two-time dynamics of spherical mixed p-spin models near a conditioned
critical point: memory-kernel solvers, lag-domain analysis, the two-body
closed form, and a finite-N conditioned Langevin simulator.

The submodules are the API (``from spinband.model import MixingFunction``).
Importing the package loads none of them, so that the command-line front
end can configure thread environment variables before numpy is first loaded.
"""

__version__ = "0.1.0"
