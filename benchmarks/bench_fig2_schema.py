"""Fig. 2 — the TVDP database schema, exercised at volume.

The ER diagram is validated functionally: bulk-insert a corpus across
every entity, measure insert and lookup throughput, and verify that the
satellite tables (FOV, scene location, features, annotations, keywords)
stay referentially consistent through a JSON persistence round-trip.
"""

import time

from benchmarks.conftest import print_table
from repro.core import TVDP
from repro.db import dump_database, load_database
from repro.imaging import CLEANLINESS_CLASSES


def test_fig2_schema_throughput(benchmark, lasan_corpus, tmp_path, capsys):
    def run():
        platform = TVDP()
        platform.catalog.define("street_cleanliness", list(CLEANLINESS_CLASSES))
        t0 = time.perf_counter()
        ids = []
        for record in lasan_corpus:
            receipt = platform.upload_image(
                record.image,
                record.fov,
                record.captured_at,
                record.uploaded_at,
                keywords=record.keywords,
            )
            ids.append(receipt.image_id)
            platform.annotations.annotate(
                receipt.image_id, "street_cleanliness", record.label, 1.0, "human"
            )
        insert_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for image_id in ids:
            platform.db.table("image_fov").find("image_id", image_id)
            platform.db.table("image_content_annotation").find("image_id", image_id)
        lookup_s = time.perf_counter() - t0
        return platform, ids, insert_s, lookup_s

    platform, ids, insert_s, lookup_s = benchmark.pedantic(run, rounds=1, iterations=1)

    path = tmp_path / "tvdp.json"
    t0 = time.perf_counter()
    dump_database(platform.db, path)
    restored = load_database(path)
    roundtrip_s = time.perf_counter() - t0

    counts = platform.db.row_counts()
    n = len(ids)
    rows = [
        f"{'images inserted':<30}{n:>10}",
        f"{'insert throughput':<30}{n / insert_s:>10.0f} img/s",
        f"{'indexed FK lookups':<30}{2 * n / lookup_s:>10.0f} lookups/s",
        f"{'persistence round-trip':<30}{roundtrip_s * 1000:>10.0f} ms",
        "",
    ]
    for table, count in sorted(counts.items()):
        rows.append(f"{'  ' + table:<30}{count:>10}")
    print_table(
        capsys,
        "Fig. 2: schema population & throughput",
        f"{'quantity':<30}{'value':>10}",
        rows,
    )

    assert counts["images"] == n
    assert counts["image_fov"] == n
    assert counts["image_scene_location"] == n
    assert counts["image_content_annotation"] == n
    assert restored.row_counts() == counts
