"""The paper scorecard and the table rendering of the benchmark harness."""

from .scorecard import Claim, paper_claims, scorecard_markdown
from .tables import fmt, render_table

__all__ = ["Claim", "paper_claims", "scorecard_markdown", "fmt", "render_table"]
