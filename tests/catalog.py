"""The obstruction sets shared by the test modules.

``CATALOG`` holds the ten acceptance sets: chains and antichains of two
and three points, the two-point chain over a two-antichain, the diamond,
and four sets mixing two obstructions.  ``WIDE`` is the width-4
antichain sum of distinct components, the largest set checked
exhaustively.
"""

CATALOG = [
    ("C(*,*)",),
    ("A(*,*)",),
    ("C(*,*,*)",),
    ("A(*,*,*)",),
    ("C(*,A(*,*))",),
    ("C(*,*,*)", "C(A(*,*),A(*,*))"),
    ("A(*,*,*)", "A(*,C(*,*))"),
    ("C(*,*,*)", "A(*,*,*)"),
    ("C(*,A(*,*),*)",),
    ("C(*,A(*,*),*)", "A(*,*,*,*)"),
]

WIDE = "A(*,C(*,*),C(*,*,*),C(*,A(*,*)))"
