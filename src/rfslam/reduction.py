"""PMBM-to-PMB reduction: track table, marginal associations, recombination.

After the update every global hypothesis is expressed over a common track
index set (prior landmarks followed by one slot per measurement).  The
per-track, per-association conditional Bernoullis are averaged over the
hypotheses sharing that association, weighted by hypothesis weight, and
the track-oriented recombination collapses the mixture to a single
multi-Bernoulli using the marginal association probabilities.  The
averaging keeps each cell's type masses (``TrackCell.masses``, the sums
of w psi that normalize its types), and the recombinations weight by them.

Cells with exactly one contributing hypothesis are copied verbatim, which
keeps the single-hypothesis reduction an exact identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .density import (
    MIN_CELL_MASS,
    Bernoulli,
    GlobalHypothesis,
    LandmarkBelief,
    PmbmDensity,
    TypeComponent,
    absent_bernoulli,
    mix_types,
    sum_in_order,
)


class InconsistentHypothesesError(ValueError):
    """Hypotheses do not share a common parent multi-Bernoulli structure."""


@dataclass
class TrackCell:
    """One (track, local association) cell of the track table."""

    beta: float = 0.0
    contributors: list = field(default_factory=list)  # (weight, Bernoulli)
    bernoulli: Optional[Bernoulli] = None             # set by averaging
    # Type -> sum of w * psi over the contributors that hold the type, added
    # left to right from zero.  Set by averaging in a track of more than one
    # cell, the only kind the recombinations weight.
    masses: Optional[dict] = None


@dataclass
class TrackTable:
    """Marginal association table over tracks.

    Prior tracks are 0..n_prior-1 with local associations q in
    {0 (misdetected), 1..m} for m measurements; the m new tracks that follow
    have q in {their own measurement, None (not born)}.
    """

    n_prior: int
    cells: list  # per track: q -> TrackCell


def align_hypotheses(density: PmbmDensity) -> TrackTable:
    """Express all hypotheses over the common track set and collect betas."""
    if not density.hypotheses:
        raise InconsistentHypothesesError("no hypotheses to align")
    first = density.hypotheses[0].assoc
    if first is None:
        raise InconsistentHypothesesError("hypotheses carry no association info")
    n_prior, n_meas = first.n_prior, first.n_meas
    cells = [{} for _ in range(n_prior + n_meas)]
    for hyp in density.hypotheses:
        sigma = hyp.assoc
        if sigma is None or sigma.n_prior != n_prior or sigma.n_meas != n_meas:
            raise InconsistentHypothesesError(
                "hypotheses disagree on the parent track structure")
        expected = n_prior + len(sigma.born_measurements())
        if len(hyp.bernoullis) != expected:
            raise InconsistentHypothesesError(
                "hypothesis Bernoulli count inconsistent with its association")
        # The Bernoullis are the prior tracks' followed by the born ones'.
        berns = iter(hyp.bernoullis)
        for track, q in zip(cells, sigma.sigma):
            cell = track.get(q)
            if cell is None:
                cell = track[q] = TrackCell()
            cell.beta += hyp.weight
            # Only a not-born new track (q None) has no Bernoulli.
            if q is not None:
                cell.contributors.append((hyp.weight, next(berns)))
    return TrackTable(n_prior, cells)


def average_conditionals(table: TrackTable) -> TrackTable:
    """Average the per-cell conditional Bernoullis over contributing
    hypotheses: a cell with one contributor is copied, and every other
    cell goes into one :func:`mix_types` call."""
    mixed, jobs = [], []
    for track in table.cells:
        for q, cell in track.items():
            if (q is None or not cell.contributors
                    or cell.beta < MIN_CELL_MASS):
                continue
            if len(cell.contributors) == 1:
                (w, bern), = cell.contributors
                cell.bernoulli = bern
                # The recombinations copy a track of one cell whole.
                if len(track) > 1:
                    cell.masses = {kind: w * comp.weight for kind, comp
                                   in bern.belief.types.items()}
                continue
            mixed.append(cell)
            jobs.append((cell.contributors, cell.beta, None))
    for cell, (belief, masses) in zip(mixed, mix_types(jobs)):
        existence = sum_in_order(w * b.existence
                                 for w, b in cell.contributors) / cell.beta
        cell.bernoulli = Bernoulli(existence, belief)
        cell.masses = masses
    return table


def _recombine_new_track(cells: dict) -> Bernoulli:
    born = [(q, c) for q, c in cells.items()
            if q is not None and c.bernoulli is not None]
    if not born:
        return absent_bernoulli()  # never born in any hypothesis
    (q, cell), = born
    bern = cell.bernoulli
    if len(cells) == 1:
        # Born in every hypothesis: marginal probability is one exactly.
        return bern
    existence = cell.beta * bern.existence
    if bern.existence <= 0.0:
        return Bernoulli(0.0, bern.belief)
    types = {k: TypeComponent(cell.masses[k] / cell.beta,
                              c.mean, c.covariance)
             for k, c in bern.belief.types.items()}
    return Bernoulli(existence, LandmarkBelief(types))


def tomb_recombine(table: TrackTable) -> GlobalHypothesis:
    """Collapse the track table to a single multi-Bernoulli hypothesis.

    A prior track that needs mixing weights each live cell's averaged
    belief by its existence times the cell's type masses; every such track
    goes into one :func:`mix_types` call.
    """
    berns, slots, jobs = [], [], []
    for cells in table.cells[:table.n_prior]:
        live = [c for c in cells.values()
                if c.bernoulli is not None and c.beta >= MIN_CELL_MASS]
        if not live:
            raise InconsistentHypothesesError("prior track with no live cells")
        if len(live) == len(cells) == 1:
            # Every hypothesis agrees on this track's association, so its
            # marginal probability is one by the row-sum invariant; copy the
            # averaged Bernoulli verbatim instead of multiplying it by a
            # floating-point rendering of one.
            berns.append(live[0].bernoulli)
            continue
        existence = sum_in_order(c.beta * c.bernoulli.existence
                                 for c in live)
        if existence <= 0.0:
            berns.append(absent_bernoulli())
            continue
        slots.append((len(berns), min(1.0, existence)))
        berns.append(None)
        jobs.append(([(c.bernoulli.existence, c.bernoulli) for c in live],
                     existence, [c.masses for c in live]))
    for (slot, existence), (belief, _) in zip(slots, mix_types(jobs)):
        berns[slot] = Bernoulli(existence, belief)
    for cells in table.cells[table.n_prior:]:
        berns.append(_recombine_new_track(cells))
    return GlobalHypothesis(1.0, tuple(berns), assoc=None)
