"""A benchmark of campaigns and the campaign service; see README.md."""
