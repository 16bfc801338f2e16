"""Per-element geometry of the spectral-element cubed-sphere grid.

Each element carries an ``np x np`` tensor grid of GLL points mapped to
the sphere by the (equiangular) gnomonic projection.  This module
computes, per GLL point:

* the physical position on the unit sphere;
* the covariant tangent basis ``e_i = dr/dxi_i`` of the element's
  reference coordinates (chain rule: reference ``xi in [-1, 1]`` →
  face angle ``alpha in [-pi/4, pi/4]`` → sphere);
* the metric tensor ``g_ij = e_i . e_j``, its inverse, and the area
  Jacobian ``J = sqrt(det g)``;

which is everything the transport solver needs: contravariant wind
components come from solving ``g u^ = e . u``, and quadrature uses
``J w_i w_j``.

Batched layout: the **primary representation** is a set of stacked
``(nelem, np, np, ...)`` arrays on :class:`GridGeometry` (``xyz``,
``basis_a``, ``basis_b``, ``jac``, ``ginv``, ``local_mass``), built in
one vectorized pass over all elements of all faces at once.  The
per-element :class:`ElementGeometry` objects are cheap read-only views
into those stacks, kept for element-local callers; solvers and the DSS
consume the stacks directly instead of re-stacking ``[e.x for e in
elements]`` on every construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cubesphere.mesh import CubedSphereMesh
from ..cubesphere.topology import FACES
from ..lru import LRUCache
from ..telemetry import span
from .gll import GLLBasis, gll_basis

__all__ = [
    "ElementGeometry",
    "GridGeometry",
    "build_geometry",
    "clear_geometry_cache",
    "geometry_cache_stats",
]


@dataclass(frozen=True)
class ElementGeometry:
    """Geometry of one spectral element at its GLL points.

    All arrays are indexed ``[i, j]`` over the tensor GLL grid (``i``
    along the local x/alpha axis) and are read-only views into the
    grid-wide stacks of :class:`GridGeometry`.

    Attributes:
        gid: Global element id.
        xyz: ``(np, np, 3)`` unit-sphere positions.
        basis_a: ``(np, np, 3)`` covariant basis ``dr/dxi_1``.
        basis_b: ``(np, np, 3)`` covariant basis ``dr/dxi_2``.
        jac: ``(np, np)`` area Jacobian ``sqrt(det g)``.
        ginv: ``(np, np, 2, 2)`` inverse metric tensor.
    """

    gid: int
    xyz: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray
    jac: np.ndarray
    ginv: np.ndarray

    def contravariant_wind(self, u_cart: np.ndarray) -> np.ndarray:
        """Contravariant components of a Cartesian tangent wind field.

        Args:
            u_cart: ``(np, np, 3)`` tangent vectors at the GLL points.

        Returns:
            ``(np, np, 2)`` contravariant components ``(u^1, u^2)`` in
            reference coordinates.
        """
        cov1 = np.einsum("ijk,ijk->ij", u_cart, self.basis_a)
        cov2 = np.einsum("ijk,ijk->ij", u_cart, self.basis_b)
        cov = np.stack([cov1, cov2], axis=-1)
        return np.einsum("ijab,ijb->ija", self.ginv, cov)


class GridGeometry:
    """Geometry of every element of a cubed-sphere SE grid.

    The stacked arrays are the primary representation (read-only, safe
    to share between solvers); the lazy ``elements`` tuple holds
    per-element views for element-local callers.

    Attributes:
        mesh: The element mesh.
        basis: The 1-D GLL basis shared by both directions.
        xyz: ``(nelem, np, np, 3)`` unit-sphere positions.
        basis_a: ``(nelem, np, np, 3)`` covariant basis ``dr/dxi_1``.
        basis_b: ``(nelem, np, np, 3)`` covariant basis ``dr/dxi_2``.
        jac: ``(nelem, np, np)`` area Jacobian.
        ginv: ``(nelem, np, np, 2, 2)`` inverse metric tensor.
        local_mass: ``(nelem, np, np)`` J-weighted quadrature mass
            ``J w_i w_j`` at each local point.
    """

    def __init__(
        self,
        mesh: CubedSphereMesh,
        basis: GLLBasis,
        xyz: np.ndarray,
        basis_a: np.ndarray,
        basis_b: np.ndarray,
        jac: np.ndarray,
        ginv: np.ndarray,
        local_mass: np.ndarray,
    ) -> None:
        self.mesh = mesh
        self.basis = basis
        self.xyz = xyz
        self.basis_a = basis_a
        self.basis_b = basis_b
        self.jac = jac
        self.ginv = ginv
        self.local_mass = local_mass
        self._elements: tuple[ElementGeometry, ...] | None = None

    @property
    def elements(self) -> tuple[ElementGeometry, ...]:
        """Per-element read-only views into the stacks (built lazily)."""
        if self._elements is None:
            self._elements = tuple(
                ElementGeometry(
                    gid=g, xyz=self.xyz[g], basis_a=self.basis_a[g],
                    basis_b=self.basis_b[g], jac=self.jac[g],
                    ginv=self.ginv[g],
                )
                for g in range(self.mesh.nelem)
            )
        return self._elements

    @property
    def npts(self) -> int:
        return self.basis.npts

    @property
    def nelem(self) -> int:
        return self.mesh.nelem

    def nbytes(self) -> int:
        """Memory footprint of the stacked arrays."""
        return sum(
            a.nbytes
            for a in (
                self.xyz, self.basis_a, self.basis_b,
                self.jac, self.ginv, self.local_mass,
            )
        )

    def total_area(self) -> float:
        """Quadrature surface area (should be ``4 pi``; tested)."""
        return float(self.local_mass.sum())


def _element_geometry(
    mesh: CubedSphereMesh, basis: GLLBasis, gid: int
) -> ElementGeometry:
    """Reference per-element construction (the historical scalar loop).

    Kept as the golden reference for the vectorized stack builder:
    :func:`_build_stacks` must reproduce these arrays bit-for-bit
    (tested in ``tests/seam/test_batched_golden.py``).
    """
    face, ix, iy = mesh.locate(gid)
    ne = mesh.ne
    f = FACES[face]
    n = np.array(f.normal, dtype=np.float64)
    ex = np.array(f.ex, dtype=np.float64)
    ey = np.array(f.ey, dtype=np.float64)
    # Abstract local coordinate of each GLL node: a = 2*(ix + t)/ne - 1
    # with t in [0, 1]; the same expression on both sides of an
    # element interface makes shared points bit-identical.
    t = (basis.nodes + 1.0) / 2.0
    a = 2.0 * (ix + t) / ne - 1.0  # (np,)
    b = 2.0 * (iy + t) / ne - 1.0
    alpha = a * (np.pi / 4.0)
    beta = b * (np.pi / 4.0)
    x_ = np.tan(alpha)[:, None]  # X(alpha), broadcast over j
    y_ = np.tan(beta)[None, :]
    p = (
        n[None, None, :]
        + x_[..., None] * ex[None, None, :]
        + y_[..., None] * ey[None, None, :]
    )
    delta = np.linalg.norm(p, axis=-1)
    r = p / delta[..., None]
    # d r / d alpha = (1 + X^2) * (ex - r (r . ex)) / delta, then chain
    # rule to reference coords: d alpha / d xi = (pi/4) * (1/ne) * ...
    # a = 2 (ix + (xi+1)/2)/ne - 1  =>  da/dxi = 1/ne.
    dalpha_dxi = (np.pi / 4.0) / ne
    sec2a = 1.0 + x_**2  # sec^2(alpha) = 1 + tan^2
    sec2b = 1.0 + y_**2
    r_dot_ex = np.einsum("ijk,k->ij", r, ex)
    r_dot_ey = np.einsum("ijk,k->ij", r, ey)
    dra = (sec2a[..., None] * (ex[None, None, :] - r * r_dot_ex[..., None])) / delta[
        ..., None
    ]
    drb = (sec2b[..., None] * (ey[None, None, :] - r * r_dot_ey[..., None])) / delta[
        ..., None
    ]
    basis_a = dra * dalpha_dxi
    basis_b = drb * dalpha_dxi
    g11 = np.einsum("ijk,ijk->ij", basis_a, basis_a)
    g12 = np.einsum("ijk,ijk->ij", basis_a, basis_b)
    g22 = np.einsum("ijk,ijk->ij", basis_b, basis_b)
    det = g11 * g22 - g12 * g12
    jac = np.sqrt(det)
    ginv = np.empty(g11.shape + (2, 2))
    ginv[..., 0, 0] = g22 / det
    ginv[..., 1, 1] = g11 / det
    ginv[..., 0, 1] = -g12 / det
    ginv[..., 1, 0] = -g12 / det
    return ElementGeometry(
        gid=gid, xyz=r, basis_a=basis_a, basis_b=basis_b, jac=jac, ginv=ginv
    )


def _axis_of(v: tuple[int, int, int]) -> int:
    """Index of the single nonzero component of a signed unit vector."""
    return next(c for c in range(3) if v[c] != 0)


def _build_stacks(
    mesh: CubedSphereMesh, basis: GLLBasis
) -> tuple[np.ndarray, ...]:
    """All element geometries at once, as ``(nelem, np, np, ...)`` stacks.

    One vectorized pass over every element of every face.  The
    floating-point expressions (and their evaluation order) are the
    element-wise transcription of :func:`_element_geometry`, evaluated
    in-place into the preallocated output stacks with a small set of
    reused scratch buffers — the stacks are bit-identical to the
    per-element loop (tested), without the loop's per-element Python
    overhead or the naive broadcast version's temporary-array churn.
    """
    ne = mesh.ne
    npts = basis.npts
    nelem = mesh.nelem
    E = ne * ne  # elements per face
    t = (basis.nodes + 1.0) / 2.0
    idx = np.arange(ne)
    # a depends only on ix (b only on iy) and both run over the same
    # per-face index range, so one (ne, np) table serves both axes:
    # a = 2*(ix + t)/ne - 1, elementwise as in _element_geometry.
    a = 2.0 * (idx[:, None] + t[None, :]) / ne - 1.0
    tan_a = np.tan(a * (np.pi / 4.0))  # (ne, np)
    # Face-local element e = iy*ne + ix  =>  ix = e % ne, iy = e // ne.
    x_ = tan_a[np.tile(idx, ne)]  # (E, np): X(alpha) per (elem, i)
    y_ = tan_a[np.repeat(idx, ne)]  # (E, np): Y(beta) per (elem, j)
    # Materialized (E, np, np) grids: every op below is then either
    # contiguous or simply strided — no broadcasting along a length-3
    # axis, which is what made the naive batched version slow.
    xg = np.broadcast_to(x_[:, :, None], (E, npts, npts)).copy()
    yg = np.broadcast_to(y_[:, None, :], (E, npts, npts)).copy()
    s2ag = 1.0 + xg**2  # sec^2(alpha) = 1 + tan^2
    s2bg = 1.0 + yg**2
    dalpha_dxi = (np.pi / 4.0) / ne
    w2 = basis.weights[:, None] * basis.weights[None, :]

    xyz = np.empty((nelem, npts, npts, 3))
    basis_a = np.empty((nelem, npts, npts, 3))
    basis_b = np.empty((nelem, npts, npts, 3))
    jac = np.empty((nelem, npts, npts))
    ginv = np.empty((nelem, npts, npts, 2, 2))
    local_mass = np.empty((nelem, npts, npts))

    # Per-face scratch, reused across the 6 faces: small enough to stay
    # cache-resident, so intermediate passes cost cache bandwidth while
    # only the final output stacks touch main memory.  Vector scratch is
    # component-major (3, E, np, np): slab ops broadcast over the first
    # axis with contiguous inner loops, where a trailing length-3 axis
    # would force numpy into tiny strided inner loops.
    p = np.empty((3, E, npts, npts))
    rc = np.empty((3, E, npts, npts))  # r components
    q = np.empty((3, E, npts, npts))
    tmp = np.empty((E, npts, npts))
    acc = np.empty((E, npts, npts))  # |p|^2 -> delta, then det
    rd = np.empty((E, npts, npts))
    G11 = np.empty((nelem, npts, npts))
    G12 = np.empty((nelem, npts, npts))
    G22 = np.empty((nelem, npts, npts))

    for f, face in enumerate(FACES):
        sl = slice(f * E, (f + 1) * E)
        r = xyz[sl]
        ba = basis_a[sl]
        bb = basis_b[sl]
        # p = (n + x*ex) + y*ey.  n, ex, ey are orthonormal signed unit
        # vectors, so each Cartesian component of p is exactly one of
        # {n_c, x*ex_c, y*ey_c} — the other two terms are exact zeros
        # in the reference expression, and multiplying by the one
        # nonzero +-1 entry is IEEE-exact.  (Zero signs may differ from
        # the reference; they compare equal and never reach a result.)
        p[_axis_of(face.normal)].fill(float(sum(face.normal)))
        np.multiply(xg, float(sum(face.ex)), out=p[_axis_of(face.ex)])
        np.multiply(yg, float(sum(face.ey)), out=p[_axis_of(face.ey)])
        # delta = |p|: square, reduce in component order, sqrt — the
        # exact op sequence (and summation order) of np.linalg.norm.
        np.multiply(p, p, out=q)
        np.add.reduce(q, axis=0, out=acc)
        np.sqrt(acc, out=acc)
        np.divide(p, acc, out=rc)
        np.copyto(r.transpose(3, 0, 1, 2), rc)
        # dra = sec2a * (ex - r (r . ex)) / delta, chain-ruled to
        # reference coords: basis_a = dra * dalpha/dxi (likewise b).
        # r . ex is exactly +-r[axis(ex)] (dot with a signed unit
        # vector), matching the reference einsum term by term.
        for e_axis, sec2, out in ((face.ex, s2ag, ba), (face.ey, s2bg, bb)):
            np.multiply(rc[_axis_of(e_axis)], float(sum(e_axis)), out=rd)
            for c in range(3):
                np.multiply(rc[c], rd, out=tmp)
                np.subtract(float(e_axis[c]), tmp, out=tmp)
                np.multiply(sec2, tmp, out=tmp)
                np.divide(tmp, acc, out=tmp)
                np.multiply(tmp, dalpha_dxi, out=out[..., c])
        # Metric dots while ba/bb are cache-hot.  The contraction stays
        # einsum: the reference fuses multiply-add (FMA) in it, so a
        # mul/add chain would be 1 ulp off.
        np.einsum("eijk,eijk->eij", ba, ba, out=G11[sl])
        np.einsum("eijk,eijk->eij", ba, bb, out=G12[sl])
        np.einsum("eijk,eijk->eij", bb, bb, out=G22[sl])

    for f in range(6):
        sl = slice(f * E, (f + 1) * E)
        g11 = G11[sl]
        g12 = G12[sl]
        g22 = G22[sl]
        # det = g11*g22 - g12*g12; jac = sqrt(det).
        det = np.multiply(g11, g22, out=acc)
        np.multiply(g12, g12, out=tmp)
        np.subtract(det, tmp, out=det)
        np.sqrt(det, out=jac[sl])
        gi = ginv[sl]
        np.divide(g22, det, out=gi[..., 0, 0])
        np.divide(g11, det, out=gi[..., 1, 1])
        # (-g12)/det == -(g12/det) exactly in IEEE arithmetic.
        off = np.divide(g12, det, out=tmp)
        np.negative(off, out=off)
        gi[..., 0, 1] = off
        gi[..., 1, 0] = off
        np.multiply(jac[sl], w2, out=local_mass[sl])
    return xyz, basis_a, basis_b, jac, ginv, local_mass


def _build_grid_geometry(ne: int, npts: int) -> GridGeometry:
    """Uncached geometry construction (the geometry-cache miss path)."""
    from ..cubesphere.mesh import cubed_sphere_mesh

    mesh = cubed_sphere_mesh(ne)
    basis = gll_basis(npts)
    stacks = _build_stacks(mesh, basis)
    for arr in stacks:
        arr.setflags(write=False)
    return GridGeometry(mesh, basis, *stacks)


#: Built geometries by ``(ne, npts)``; lookups are published under
#: ``geometry_cache_total``.  A workload cycling through more than 8
#: resolutions shows up as a rising miss count, not silent rebuilds.
_GEOMETRY_CACHE = LRUCache(8, "geometry_cache_total")


def geometry_cache_stats() -> dict[str, object]:
    """Hit/miss/eviction counts and entries of the geometry cache."""
    cache = _GEOMETRY_CACHE
    return {
        **cache.stats(),
        "evictions": cache.evictions,
        "maxsize": cache.maxsize,
        "keys": [
            {"ne": ne, "npts": npts, "bytes": geom.nbytes()}
            for (ne, npts), geom in cache.items()
        ],
    }


def clear_geometry_cache() -> None:
    """Drop all cached geometries and reset the counters."""
    _GEOMETRY_CACHE.clear()


def build_geometry(ne: int, npts: int = 8) -> GridGeometry:
    """Build (and cache) the SE grid geometry for resolution ``ne``.

    Cached in a process-wide LRU (8 entries, hit/miss counters under
    ``geometry_cache_total``, a ``geometry_build`` span per build);
    repeated calls at the same resolution return the same object.

    Args:
        ne: Elements per cube-face edge.
        npts: GLL points per element edge (SEAM default 8).
    """
    ne, npts = int(ne), int(npts)

    def build() -> GridGeometry:
        with span("geometry_build", "seam", ne=ne, npts=npts):
            return _build_grid_geometry(ne, npts)

    return _GEOMETRY_CACHE.get_or_compute((ne, npts), build)
