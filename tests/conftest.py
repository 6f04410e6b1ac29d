import json

import pytest

from indicscore.manifest import ManifestRow


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    return path


@pytest.fixture
def jsonl_writer(tmp_path):
    def _write(name, records):
        return str(write_jsonl(tmp_path / name, records))

    return _write


def make_manifest_row(i, language="te", corpus_class="digits", **overrides):
    texts = {
        "te": "ఇక్కడ ఒక పరీక్ష వాక్యం ఉంది సరే",
        "ta": "இங்கே ஒரு சோதனை வாக்கியம் உள்ளது சரி",
        "hi": "यहाँ एक परीक्षण वाक्य है ठीक",
    }
    fields = {
        "id": f"row{i:04d}",
        "text": texts[language],
        "language": language,
        "corpus_class": corpus_class,
    }
    fields.update(overrides)
    return ManifestRow(**fields)
