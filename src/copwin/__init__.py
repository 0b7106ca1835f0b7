"""copwin: exact cops-and-robber game solving on directed graphs.

Computes monotone and non-monotone cop numbers for the visible
fast-robber and invisible (lazy or fast) robber games, the width
measures those games characterize, winning-strategy certificates, and
exact solutions of the classic hard digraph problems at desk scale.
"""

__version__ = "0.1.0"

from .arena import (  # noqa: F401
    INVISIBLE_FAST,
    INVISIBLE_LAZY,
    SUPPORTED_VARIANTS,
    VISIBLE_FAST,
    VISIBLE_FAST_SCC,
    GameVariant,
)
from .certificates import Certificate, verify_certificate  # noqa: F401
from .digraph import (  # noqa: F401
    Digraph,
    bidirect,
    delete_arcs,
    fingerprint,
    induced_subgraph,
    is_acyclic,
    parse_edge_list,
    reach,
    scc,
    to_edge_list,
    transitive_closure,
)
from .solver import Outcome, Winner, cop_number, gap, solve  # noqa: F401
