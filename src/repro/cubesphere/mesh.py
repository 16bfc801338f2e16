"""The cubed-sphere element mesh: indexing, adjacency, geometry.

For partitioning purposes (paper Sec. 1) a spectral element is the
atomic unit: the mesh is the set of ``K = 6 * Ne * Ne`` quadrilateral
elements together with its neighbor structure.  Communication between
processors is determined by neighboring elements that share a boundary
(*edge neighbors*, ``np`` shared GLL points) or a single corner point
(*corner neighbors*, one shared point).

Adjacency is derived from exact integer corner-node identification
(:func:`repro.cubesphere.topology.corner_nodes_scaled`), so cross-face
neighbors and the eight special cube corners — where only three
elements meet and an element has seven, not eight, neighbors — come out
of the same code path as face-interior neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lru import LRUCache
from ..telemetry import span
from .projection import element_center_local, local_to_sphere, sphere_to_lonlat
from .topology import NUM_FACES, corner_nodes_scaled

__all__ = ["MESH_CACHE", "CubedSphereMesh", "cubed_sphere_mesh"]


@dataclass(frozen=True)
class _Adjacency:
    """CSR-style neighbor lists (indptr/indices) for one relation."""

    indptr: np.ndarray
    indices: np.ndarray

    def neighbors(self, e: int) -> np.ndarray:
        return self.indices[self.indptr[e] : self.indptr[e + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


class CubedSphereMesh:
    """Element mesh of the cubed-sphere at resolution ``Ne``.

    Element global ids are ``gid = face * Ne^2 + iy * Ne + ix`` with
    ``ix`` varying fastest; ``(ix, iy)`` are the face-local cell
    coordinates used by the space-filling curves (origin at the face's
    local bottom-left).

    Args:
        ne: Elements along each cube-face edge (paper's ``Ne``).
        projection: Gnomonic variant for geometry queries
            (``"equiangular"`` or ``"equidistant"``).
    """

    def __init__(self, ne: int, projection: str = "equiangular"):
        if ne < 1:
            raise ValueError(f"ne must be >= 1, got {ne}")
        self.ne = int(ne)
        self.projection = projection
        self.nelem = 6 * self.ne * self.ne
        self._build_nodes()
        self._build_adjacency()
        self._centers_xyz: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def gid(self, face: int, ix: int, iy: int) -> int:
        """Global element id of face-local cell ``(ix, iy)``."""
        ne = self.ne
        if not (0 <= face < NUM_FACES and 0 <= ix < ne and 0 <= iy < ne):
            raise IndexError(f"element (face={face}, ix={ix}, iy={iy}) out of range")
        return face * ne * ne + iy * ne + ix

    def gids(self, face: int, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`gid` (no bounds check)."""
        ne = self.ne
        return face * ne * ne + iy * ne + ix

    def locate(self, gid: int) -> tuple[int, int, int]:
        """Inverse of :meth:`gid`: returns ``(face, ix, iy)``."""
        ne = self.ne
        if not 0 <= gid < self.nelem:
            raise IndexError(f"gid {gid} out of range [0, {self.nelem})")
        face, rem = divmod(gid, ne * ne)
        iy, ix = divmod(rem, ne)
        return face, ix, iy

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_nodes(self) -> None:
        ne = self.ne
        b = 2 * ne + 1
        # Every lattice node (x, y, z) in [-ne, ne]^3 as one int64 key
        # ((x+ne)*b + (y+ne))*b + (z+ne): it sorts like the coordinate
        # rows, so node ids are the rank of the key among unique keys.
        # Corner order per element: (i,j),(i+1,j),(i+1,j+1),(i,j+1).
        corner_keys = np.empty((NUM_FACES, ne, ne, 4), dtype=np.int64)
        for face in range(NUM_FACES):
            x, y, z = np.moveaxis(corner_nodes_scaled(face, ne) + ne, -1, 0)
            key = ((x * b + y) * b + z).T  # [j, i]: iy-major like gids
            corner_keys[face, :, :, 0] = key[:-1, :-1]
            corner_keys[face, :, :, 1] = key[:-1, 1:]
            corner_keys[face, :, :, 2] = key[1:, 1:]
            corner_keys[face, :, :, 3] = key[1:, :-1]
        uniq, inverse = np.unique(corner_keys.ravel(), return_inverse=True)
        self.nnodes = int(uniq.shape[0])
        #: (nelem, 4) node ids of each element's corners (CCW in face frame).
        self.element_nodes = inverse.reshape(self.nelem, 4)
        xy, z = np.divmod(uniq, b)
        x, y = np.divmod(xy, b)
        self._node_coords_scaled = np.stack([x, y, z], axis=1) - ne

    def _build_adjacency(self) -> None:
        # Node -> element incidence, grouped by node; the stable sort
        # keeps each node's elements ascending.
        flat = self.element_nodes.ravel()
        elems = np.argsort(flat, kind="stable") // 4
        count = np.bincount(flat, minlength=self.nnodes)
        start = np.cumsum(count) - count
        # A node touches at most 4 elements: pair its slots a < b.
        keys = []
        for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            s = start[count > b]
            keys.append(elems[s + a] * self.nelem + elems[s + b])
        # Shared nodes per element pair: >= 2 is an edge, 1 a corner.
        pairs, shared = np.unique(np.concatenate(keys), return_counts=True)
        lo, hi = np.divmod(pairs, self.nelem)
        edge = shared >= 2
        self.edge_adjacency = self._to_csr(lo[edge], hi[edge])
        self.corner_adjacency = self._to_csr(lo[~edge], hi[~edge])

    def _to_csr(self, lo: np.ndarray, hi: np.ndarray) -> _Adjacency:
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        order = np.argsort(src * self.nelem + dst)
        indptr = np.zeros(self.nelem + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.nelem), out=indptr[1:])
        return _Adjacency(indptr=indptr, indices=dst[order])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def edge_neighbors(self, gid: int) -> np.ndarray:
        """Elements sharing a full edge with ``gid`` (always 4)."""
        return self.edge_adjacency.neighbors(gid)

    def corner_neighbors(self, gid: int) -> np.ndarray:
        """Elements sharing exactly one corner point with ``gid``
        (4 for generic elements, 3 for the 24 cube-corner elements)."""
        return self.corner_adjacency.neighbors(gid)

    def all_neighbors(self, gid: int) -> np.ndarray:
        """Union of edge and corner neighbors, sorted."""
        return np.sort(
            np.concatenate([self.edge_neighbors(gid), self.corner_neighbors(gid)])
        )

    def neighbor_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected neighbor pairs ``(edge_pairs, corner_pairs)``.

        Returns:
            Two ``(m, 2)`` arrays with ``pair[:, 0] < pair[:, 1]``.
        """

        def undirected(adj: _Adjacency) -> np.ndarray:
            src = np.repeat(np.arange(self.nelem), adj.degrees())
            mask = src < adj.indices
            return np.stack([src[mask], adj.indices[mask]], axis=1)

        return undirected(self.edge_adjacency), undirected(self.corner_adjacency)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def centers_xyz(self) -> np.ndarray:
        """Unit-sphere positions of element centers, ``(nelem, 3)``."""
        if self._centers_xyz is None:
            ne = self.ne
            out = np.empty((self.nelem, 3), dtype=np.float64)
            a, b = element_center_local(ne)
            for face in range(NUM_FACES):
                xyz = local_to_sphere(face, a, b, self.projection)
                ix, iy = np.meshgrid(np.arange(ne), np.arange(ne), indexing="ij")
                g = self.gids(face, ix, iy)
                out[g.ravel()] = xyz.reshape(-1, 3)
            out.setflags(write=False)
            self._centers_xyz = out
        return self._centers_xyz

    @property
    def centers_lonlat(self) -> tuple[np.ndarray, np.ndarray]:
        """Longitude/latitude (radians) of element centers."""
        return sphere_to_lonlat(self.centers_xyz)

    def element_areas(self) -> np.ndarray:
        """Spherical area (steradians) of each element.

        Computed as the solid angle of the spherical quadrilateral
        spanned by the projected corner nodes, via the Van
        Oosterom-Strackee triangle formula on the two triangles of the
        quad.  Sums to ``4 * pi`` over the mesh (tested).
        """
        ne = self.ne
        scaled = self._node_coords_scaled.astype(np.float64) / ne
        if self.projection == "equiangular":
            # Node coordinates are linear on the cube; re-warp the two
            # in-face components so areas match the equiangular grid.
            # The face-normal component has |c| == 1; warp the others.
            warped = np.tan(scaled * (np.pi / 4.0))
            on_axis = np.abs(np.abs(scaled) - 1.0) < 1e-12
            scaled = np.where(on_axis, scaled, warped)
        xyz = scaled / np.linalg.norm(scaled, axis=1, keepdims=True)
        quads = xyz[self.element_nodes]  # (nelem, 4, 3)

        def tri_solid_angle(a, b, c):
            num = np.einsum("ij,ij->i", a, np.cross(b, c))
            d = (
                1.0
                + np.einsum("ij,ij->i", a, b)
                + np.einsum("ij,ij->i", b, c)
                + np.einsum("ij,ij->i", a, c)
            )
            return 2.0 * np.arctan2(np.abs(num), d)

        t1 = tri_solid_angle(quads[:, 0], quads[:, 1], quads[:, 2])
        t2 = tri_solid_angle(quads[:, 0], quads[:, 2], quads[:, 3])
        return t1 + t2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CubedSphereMesh(ne={self.ne}, nelem={self.nelem}, "
            f"projection={self.projection!r})"
        )


#: The process-wide mesh memo (published as ``stage_cache_total{stage="mesh"}``).
MESH_CACHE = LRUCache(32, "stage_cache_total", stage="mesh")


def cubed_sphere_mesh(ne: int, projection: str = "equiangular") -> CubedSphereMesh:
    """Cached constructor for :class:`CubedSphereMesh`.

    Mesh construction is the most expensive pure-topology step, and
    experiments re-use the same handful of resolutions, so meshes are
    memoized (they are immutable after construction) in one LRU of 32
    entries shared by every caller, the partition pipeline included.
    """
    key = (int(ne), projection)

    def build() -> CubedSphereMesh:
        with span("stage:mesh", "pipeline", key=str(key)):
            return CubedSphereMesh(ne, projection)

    return MESH_CACHE.get_or_compute(key, build)


cubed_sphere_mesh.cache_clear = MESH_CACHE.clear
