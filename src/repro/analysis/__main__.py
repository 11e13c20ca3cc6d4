"""``python -m repro.analysis`` — print the paper scorecard as markdown.

Exits with status 1 if a claim falls outside its accepted range.
"""

import sys

from .scorecard import paper_claims, scorecard_markdown

claims = paper_claims()
print(scorecard_markdown(claims))
sys.exit(0 if all(c.holds for c in claims) else 1)
