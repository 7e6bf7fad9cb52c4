"""End-to-end benchmark of the MaxEmbed reproduction (see ../README.md)."""
