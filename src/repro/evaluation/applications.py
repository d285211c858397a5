"""The paper's Table 2 as data: one :class:`Application` row per application.

A row states once what every walk of the evaluation needs — the display
name and Table 2 text, the HDC++ app class, the dataset an ``EvaluationScale``
sizes, the keyword arguments that size the HDC++ instance *and* its baselines,
the hand-written ``"cpu"`` / ``"gpu"`` baseline modules (Figure 5, Table 4),
and the sources Table 4 counts.  The evaluated targets are the app class's
own ``targets`` — the value its ``as_servable`` registers with.  A row has
no edge-GPU formula: Figure 6 prices its accelerator runs from the stage
profile they report.  Figures 5 / 6, Tables 2 / 4, the figure benches and
the application tests iterate :data:`APPLICATIONS`; nothing else
enumerates the five applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable, Mapping

from repro.apps import HDClassification, HDClassificationInference, HDClustering
from repro.apps import HDHashtable, HyperOMS, RelHD
from repro.apps.classification import classification_search
from repro.apps.clustering import _bundle_clusters, _farthest_first_init, clustering_purity
from repro.apps.common import Search
from repro.apps.hyperoms import _item_memory, make_level_hypervectors
from repro.baselines import classification_cuda, classification_python, clustering_cuda
from repro.baselines import clustering_python, hashtable_python, hyperoms_cuda, relhd_cuda, relhd_python
from repro.baselines.common import BaselineResult
from repro.datasets import CoraConfig, GenomicsConfig, IsoletConfig, SpectraConfig
from repro.datasets import make_cora_like, make_genomics_dataset, make_isolet_like, make_spectral_library
from repro.serving.servable import HOST_TARGETS

__all__ = ["Application", "APPLICATIONS", "SEARCH"]

#: The shared search statement every row's programs trace, counted in each
#: row's Table 4 ``sources`` (the two training rows add ``Search.rule``), so
#: the HDC++ column cannot shrink by moving a search into the shared code.
SEARCH = (Search.define, Search.score, Search.reduce)


@dataclass(frozen=True)
class Application:
    """One row of Table 2 and everything the evaluation derives from it."""

    name: str
    workload: str
    stages: tuple
    app: type
    dataset: Callable  #: ``scale -> dataset``
    #: ``(scale, dataset) -> kwargs`` of ``app(**kwargs)`` and ``baseline.run(dataset, **kwargs)``
    args: Callable
    #: Style (``"cpu"`` per-sample, ``"gpu"`` batched) -> baseline module;
    #: a style the paper has no baseline for is absent.
    baselines: Mapping[str, ModuleType]
    #: The HDC++ application code proper, as Table 4 counts it.
    sources: tuple
    #: Extra ``run`` arguments: the batched style of a module that carries both.
    gpu_args: Mapping = field(default_factory=dict)

    @property
    def targets(self) -> tuple:
        return self.app.targets

    @property
    def accelerators(self) -> tuple:
        return tuple(t for t in self.targets if t not in HOST_TARGETS)

    def instance(self, scale, dataset):
        return self.app(**self.args(scale, dataset))

    def run_baseline(self, style: str, scale, dataset) -> BaselineResult:
        extra = self.gpu_args if style == "gpu" else {}
        return self.baselines[style].run(dataset, **self.args(scale, dataset), **extra)


APPLICATIONS = (
    Application(
        "HD-Classification",
        "Classification implemented using HDC",
        ("random-projection encoding", "training", "inference"),
        HDClassification,
        lambda s: make_isolet_like(s.isolet()),
        lambda s, d: dict(dimension=s.classification_dim, epochs=s.classification_epochs),
        {"cpu": classification_python, "gpu": classification_cuda},
        (*SEARCH, Search.rule, classification_search, HDClassification.build_program,
         HDClassificationInference.train_offline, HDClassificationInference.build_program),
    ),
    Application(
        "HD-Clustering",
        "K-means clustering implemented using HDC",
        ("random-projection encoding", "inference"),
        HDClustering,
        lambda s: make_isolet_like(IsoletConfig(n_train=s.clustering_samples, n_test=64)),
        lambda s, d: dict(
            dimension=s.classification_dim, n_clusters=d.n_classes, iterations=s.clustering_iterations
        ),
        {"cpu": clustering_python, "gpu": clustering_cuda},
        (*SEARCH, HDClustering.search, HDClustering.build_encode_program,
         HDClustering.build_assign_program, HDClustering.run, _bundle_clusters, _farthest_first_init,
         clustering_purity),
    ),
    Application(
        "HyperOMS",
        "Open modification search for mass spectrometry",
        ("level-ID encoding", "inference"),
        HyperOMS,
        lambda s: make_spectral_library(
            SpectraConfig(n_library=s.spectra_library, n_queries=s.spectra_queries)
        ),
        lambda s, d: dict(dimension=s.oms_dim),
        {"gpu": hyperoms_cuda},
        (make_level_hypervectors, _item_memory, HyperOMS._make_encoder, HyperOMS._encoders,
         *SEARCH, HyperOMS.search, HyperOMS.build_program),
    ),
    Application(
        "RelHD",
        "GNN learning, data relationship analysis",
        ("graph-neighbour encoding", "inference", "training"),
        RelHD,
        lambda s: make_cora_like(CoraConfig(n_nodes=s.cora_nodes)),
        lambda s, d: dict(dimension=s.relhd_dim),
        {"cpu": relhd_python, "gpu": relhd_cuda},
        (*SEARCH, Search.rule, RelHD.search, RelHD.build_encode_program, RelHD.build_classify_program,
         RelHD.aggregate_neighbours, RelHD.run),
    ),
    Application(
        "HD-Hashtable",
        "Genome sequence search for long reads",
        ("k-mer based encoding", "inference"),
        HDHashtable,
        lambda s: make_genomics_dataset(
            GenomicsConfig(genome_length=s.genome_length, n_reads=s.genome_reads)
        ),
        lambda s, d: dict(dimension=s.hashtable_dim),
        {"cpu": hashtable_python, "gpu": hashtable_python},
        # The per-read encoder is the program's encoding; its batch route
        # (packed sub-tables, exact, held to it by the gate) is not counted.
        (HDHashtable.make_base_hypervectors, HDHashtable._rotated_bases,
         HDHashtable._make_read_encoder, HDHashtable.encode_reference_buckets,
         *SEARCH, HDHashtable.search, HDHashtable.build_program),
        gpu_args={"use_batched_search": True},
    ),
)
