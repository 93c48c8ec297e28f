"""Ablation — does storing augmented images pay off?

TVDP stores augmented variants alongside originals (Section IV-B).
This bench trains the cleanliness classifier with and without
augmentation at a reduced training-set size (where augmentation should
matter most) and compares held-out F1.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.features import CnnFeatureExtractor
from repro.imaging import (
    add_noise,
    adjust_brightness,
    center_crop,
    flip_horizontal,
    resize,
)
from repro.ml import LinearSVM, StandardScaler, f1_score

TRAIN_PER_CLASS = 12  # deliberately scarce
TEST_START = 100  # corpus tail reserved for testing


def augmented_variants(image, rng):
    out = [flip_horizontal(image)]
    out.append(resize(center_crop(image, 0.85), image.height, image.width))
    out.append(adjust_brightness(image, 0.08))
    out.append(add_noise(image, 0.02, rng))
    return out


def test_ablation_augmentation(benchmark, lasan_corpus, capsys):
    extractor = CnnFeatureExtractor()
    rng = np.random.default_rng(0)

    # Scarce training set: first TRAIN_PER_CLASS records of each class.
    by_class: dict[str, list] = {}
    for record in lasan_corpus[:TEST_START]:
        by_class.setdefault(record.label, []).append(record)
    train_records = [
        record for records in by_class.values() for record in records[:TRAIN_PER_CLASS]
    ]
    test_records = lasan_corpus[TEST_START:]

    def run():
        X_plain = [extractor.extract(r.image) for r in train_records]
        y_plain = [r.label for r in train_records]
        X_aug, y_aug = list(X_plain), list(y_plain)
        for record in train_records:
            for variant in augmented_variants(record.image, rng):
                X_aug.append(extractor.extract(variant))
                y_aug.append(record.label)
        X_test = np.vstack([extractor.extract(r.image) for r in test_records])
        y_test = np.array([r.label for r in test_records])

        scores = {}
        for name, (X, y) in (
            ("originals only", (np.vstack(X_plain), np.array(y_plain))),
            ("with augmentation", (np.vstack(X_aug), np.array(y_aug))),
        ):
            scaler = StandardScaler()
            model = LinearSVM(epochs=40, seed=0).fit(scaler.fit_transform(X), y)
            predictions = model.predict(scaler.transform(X_test))
            scores[name] = (X.shape[0], f1_score(y_test, predictions))
        return scores

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    header = f"{'training set':<22}{'samples':>10}{'macro F1':>12}"
    rows = [
        f"{name:<22}{n:>10}{f1:>12.3f}" for name, (n, f1) in scores.items()
    ]
    print_table(
        capsys,
        f"Ablation: augmentation at {TRAIN_PER_CLASS}/class training scale",
        header,
        rows,
    )
    plain_f1 = scores["originals only"][1]
    aug_f1 = scores["with augmentation"][1]
    # Augmentation must not hurt a scarce-data model (usually helps).
    assert aug_f1 >= plain_f1 - 0.03
