"""Synthetic website catalog with Table 5's page factors.

The paper instruments Alexa's top 1500 websites; per page it extracts
the factors of Table 5: object count (NO), dynamic object count/share
(DNO, DSO), image and video counts (NI, NV), total page size (PS), and
average object size (AOS). The generator draws those factors from
heavy-tailed distributions fitted to published HTTP-Archive-style
statistics (median page ~2 MB / ~70 objects, long tail to tens of MB
and ~1000 objects), which is what Fig. 19's x-axis bucketing needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

import numpy as np


@dataclass(frozen=True)
class Website:
    """One website's page factors (Table 5).

    Attributes:
        name: synthetic hostname.
        n_objects: total object count (NO).
        n_dynamic: dynamically generated objects (DNO numerator).
        n_images: image count (NI).
        n_videos: embedded video count (NV).
        total_bytes: total page size in bytes (PS).
        dynamic_bytes: bytes in dynamic objects (DSO numerator).
    """

    name: str
    n_objects: int
    n_dynamic: int
    n_images: int
    n_videos: int
    total_bytes: int
    dynamic_bytes: int

    def __post_init__(self) -> None:
        if self.n_objects < 1:
            raise ValueError("a page has at least one object")
        if not 0 <= self.n_dynamic <= self.n_objects:
            raise ValueError("n_dynamic out of range")
        if self.total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        if not 0 <= self.dynamic_bytes <= self.total_bytes:
            raise ValueError("dynamic_bytes out of range")

    @property
    def dynamic_ratio(self) -> float:
        """DNO as a share of objects (the Fig. 22 split feature)."""
        return self.n_dynamic / self.n_objects

    @property
    def dynamic_size_ratio(self) -> float:
        """DSO: dynamic bytes over total bytes."""
        return self.dynamic_bytes / self.total_bytes

    @property
    def avg_object_bytes(self) -> float:
        """AOS."""
        return self.total_bytes / self.n_objects

    def feature_vector(self) -> np.ndarray:
        """Table 5 features in a fixed order (see FEATURE_NAMES)."""
        return np.array(
            [
                self.n_objects,
                self.n_dynamic,
                self.dynamic_ratio,
                self.n_images,
                self.n_videos,
                self.total_bytes,
                self.dynamic_bytes,
                self.dynamic_size_ratio,
                self.avg_object_bytes,
            ]
        )


FEATURE_NAMES: List[str] = [
    "NO",  # number of objects
    "DNO_count",  # dynamic objects
    "DNO",  # dynamic / total objects
    "NI",  # images
    "NV",  # videos
    "PS",  # total page size (bytes)
    "DSO_bytes",  # dynamic bytes
    "DSO",  # dynamic / total size
    "AOS",  # average object size
]


@dataclass
class WebsiteCatalog:
    """An ordered collection of websites."""

    sites: List[Website] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self) -> Iterator[Website]:
        return iter(self.sites)

    def __getitem__(self, index: int) -> Website:
        return self.sites[index]

    def feature_matrix(self) -> np.ndarray:
        return np.array([site.feature_vector() for site in self.sites])

    def bucket_by(self, key, buckets: List[tuple]) -> Dict[str, List[Website]]:
        """Group sites into labeled value ranges (Fig. 19's x-axis)."""
        grouped: Dict[str, List[Website]] = {label: [] for label, *_ in buckets}
        for site in self.sites:
            value = key(site)
            for label, low, high in buckets:
                if low <= value < high:
                    grouped[label].append(site)
                    break
        return grouped


def generate_catalog(n_sites: int = 1500, seed: int = 11) -> WebsiteCatalog:
    """Draw ``n_sites`` websites with Table 5 factor distributions."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    rng = np.random.default_rng(seed)
    sites: List[Website] = []
    for i in range(n_sites):
        n_objects = int(min(max(rng.lognormal(np.log(70.0), 0.9), 2), 1200))
        dynamic_ratio = float(min(max(rng.beta(2.0, 3.5), 0.0), 0.98))
        n_dynamic = int(round(dynamic_ratio * n_objects))
        n_images = int(min(max(rng.binomial(n_objects, 0.4), 0), n_objects))
        n_videos = int(rng.poisson(0.4))
        avg_object_kb = float(min(max(rng.lognormal(np.log(28.0), 0.7), 2.0), 400.0))
        total_bytes = int(n_objects * avg_object_kb * 1024)
        # Dynamic objects skew smaller (scripts, beacons) than media.
        dynamic_bytes = int(
            total_bytes
            * min(max(dynamic_ratio * rng.uniform(0.5, 1.1), 0.0), 1.0)
        )
        sites.append(
            Website(
                name=f"site-{i:04d}.example",
                n_objects=n_objects,
                n_dynamic=min(n_dynamic, n_objects),
                n_images=n_images,
                n_videos=n_videos,
                total_bytes=max(total_bytes, 1024),
                dynamic_bytes=min(dynamic_bytes, total_bytes),
            )
        )
    return WebsiteCatalog(sites=sites)
